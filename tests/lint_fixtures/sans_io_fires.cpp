// Fixture: linted under a pretend src/psync/dist/leader.cpp path, where
// the leader's policy reaches the world only through its LeaderIo seam.
// Each of the nine system includes below is a sans-io-include finding;
// the standard containers and the psync include are not.
#include <chrono>
#include <fcntl.h>
#include <map>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "psync/dist/frame.hpp"

int use_io();
