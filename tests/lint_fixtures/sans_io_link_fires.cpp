// Fixture: linted under a pretend src/psync/dist/link.cpp path, where the
// worker link's policy reaches its socket and clock only through the
// LinkIo seam. Each of the five system includes the socket link once
// needed (<chrono>, <fcntl.h>, <poll.h>, <thread>, <unistd.h>) is a
// sans-io-include finding; <mutex>, the containers and the psync include
// are not.
#include <chrono>
#include <fcntl.h>
#include <map>
#include <mutex>
#include <poll.h>
#include <string>
#include <thread>
#include <unistd.h>

#include "psync/dist/frame.hpp"

int use_link_io();
