// TCP plumbing and frame I/O for the leader<->worker transport: the
// length-prefixed frames of frame.hpp over TCP. It is the only channel
// between a sweep leader and its workers, whether they run on the
// leader's host (loopback, ephemeral port) or on other machines
// (--listen/--advertise). The leader's side is dist/supervisor.cpp; the
// worker's side is dist/worker.cpp, whose link policy — reconnect,
// resend, handshake and fencing — is WorkerLinkCore (link.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "psync/dist/frame.hpp"

namespace psync::dist {

/// Bind + listen on host:port (port 0 = ephemeral; the chosen port comes
/// back through *actual_port). Returns the nonblocking listen fd; throws
/// SimulationError on failure.
int tcp_listen(const std::string& host, std::uint16_t port,
               std::uint16_t* actual_port);

/// Blocking connect with TCP_NODELAY; returns the fd or -1 (errno holds
/// the reason).
int tcp_connect(const std::string& host, std::uint16_t port);

/// Accept one connection from a listen fd; the accepted fd is nonblocking
/// with TCP_NODELAY (the leader's acks are small frames a Nagle delay
/// would hold back). Returns -1 with errno set when nothing is pending.
int tcp_accept(int listen_fd);

/// Read everything available on the nonblocking connection `fd` into
/// `decoder`. Returns false once the peer closed it or a read failed.
bool read_frames(int fd, FrameDecoder* decoder);

/// Send one whole frame on `fd`. When the socket buffer is full it waits
/// up to 100 ms for room; if that wait times out, `keep_waiting` waits
/// again and otherwise the send gives up. Returns false on giving up or a
/// hard error — the caller treats the connection as dropped.
bool send_frame(int fd, const Frame& frame, bool keep_waiting);

/// Parse "host:port" or bare "port" (host defaults to 127.0.0.1).
bool parse_host_port(const std::string& s, std::string* host,
                     std::uint16_t* port);

}  // namespace psync::dist
