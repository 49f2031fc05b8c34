// psync_serve — the campaign service daemon.
//
// Binds a Unix-domain stream socket and serves the line-delimited JSON
// protocol in src/psync/serve/protocol.hpp: clients submit INI campaign
// configs, poll status, stream per-point events, and fetch rendered
// results. Identical specs (by content digest) share one campaign; with
// --cache DIR every campaign journals to <DIR>/<digest>.jsonl and the
// per-point result cache survives daemon restarts — a resubmitted
// campaign completes from disk without re-simulating a single point.
//
// Usage:
//   psync_serve --socket PATH [--cache DIR] [--threads N]
//
// Shutdown: SIGTERM, SIGINT, or a client {"op":"shutdown"} frame all
// converge on one graceful stop (connections closed, campaigns
// cancelled, journal tails durable). Exit codes: 0 clean shutdown,
// 1 startup failure, 2 usage.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "psync/common/config.hpp"
#include "psync/serve/server.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psync_serve --socket PATH [--cache DIR] [--threads N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  psync::serve::ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      if (i + 1 >= argc) return usage();
      opts.socket_path = argv[++i];
    } else if (arg == "--cache") {
      if (i + 1 >= argc) return usage();
      opts.cache_dir = argv[++i];
    } else if (arg == "--threads") {
      if (i + 1 >= argc) return usage();
      const auto n = psync::parse_decimal(argv[++i]);
      if (!n) return usage();
      opts.threads = static_cast<std::size_t>(*n);
    } else {
      return usage();
    }
  }
  if (opts.socket_path.empty()) return usage();

  // SIGTERM/SIGINT are consumed synchronously with sigwait below. Block
  // them before any thread exists so every server thread inherits the
  // mask and the signals can only land in the main thread's wait.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  ::pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  try {
    psync::serve::Server server(opts);
    server.start();
    std::fprintf(stderr, "psync_serve: listening on %s%s%s\n",
                 opts.socket_path.c_str(),
                 opts.cache_dir.empty() ? "" : ", cache dir ",
                 opts.cache_dir.c_str());

    // A client {"op":"shutdown"} resolves wait_for_shutdown(); forward it
    // into the signal wait so both exit paths share one stop() call.
    std::thread waiter([&server]() {
      server.wait_for_shutdown();
      ::kill(::getpid(), SIGTERM);
    });

    int signo = 0;
    ::sigwait(&mask, &signo);
    std::fprintf(stderr, "psync_serve: shutting down (%s)\n",
                 signo == SIGINT ? "SIGINT" : "SIGTERM");
    server.stop();
    waiter.join();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psync_serve: %s\n", e.what());
    return 1;
  }
}
