// Library side of the tools/reach.sh fixture: root.cpp calls used() and
// never dead().
#pragma once

namespace psync::reach_fixture {

int used(int x);
int dead(int x);

}  // namespace psync::reach_fixture
