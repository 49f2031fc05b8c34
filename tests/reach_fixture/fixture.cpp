#include "fixture.hpp"

namespace psync::reach_fixture {

int used(int x) { return x + 1; }

int dead(int x) { return x * 2; }

}  // namespace psync::reach_fixture
