// Root binary of the tools/reach.sh fixture.
#include "fixture.hpp"

int main(int argc, char**) { return psync::reach_fixture::used(argc) - 2; }
