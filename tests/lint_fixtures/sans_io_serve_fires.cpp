// Fixture: linted under a pretend src/psync/serve/core.cpp path, where
// the daemon's policy reaches its sockets, campaign threads and wake pipe
// only through the ServeIo seam. Each of the six system includes the
// thread-per-connection server needed or a reactor would need (<chrono>,
// <poll.h>, <sys/socket.h>, <sys/un.h>, <thread>, <unistd.h>) is a
// sans-io-include finding; <mutex>, the containers and the psync include
// are not.
#include <chrono>
#include <map>
#include <mutex>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "psync/serve/protocol.hpp"

int use_serve_io();
