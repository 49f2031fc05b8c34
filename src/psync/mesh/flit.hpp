// Flits and packets for the wormhole-routed electronic mesh.
//
// Paper parameterization (Section V-C-2): 64-bit flits, flit size = FFT
// element size, one header flit carrying the destination address per packet.
#pragma once

#include <cstdint>
#include <vector>

namespace psync::mesh {

using NodeId = std::uint32_t;
using PacketId = std::uint32_t;

enum class FlitKind : std::uint8_t {
  kHead = 0,      // carries routing info (address header)
  kBody = 1,
  kTail = 2,
  kHeadTail = 3,  // single-flit packet
};

struct Flit {
  PacketId packet = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t seq = 0;  // position within the packet, 0 = head
  FlitKind kind = FlitKind::kHead;
  std::uint64_t payload = 0;

  bool is_head() const {
    return kind == FlitKind::kHead || kind == FlitKind::kHeadTail;
  }
  bool is_tail() const {
    return kind == FlitKind::kTail || kind == FlitKind::kHeadTail;
  }
};

/// A packet to inject: expands to 1 head flit + `payload_flits` body flits
/// (the last payload flit is the tail; zero-payload packets are head-tail).
struct PacketDesc {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t payload_flits = 0;
  /// Head-flit payload (an address/tag in machine runs). When `words` is
  /// empty, body flit i carries payload_base + i so tests can check
  /// integrity end to end.
  std::uint64_t payload_base = 0;
  /// Optional explicit payload words (size == payload_flits); used by the
  /// machine simulators to move real data through the network.
  std::vector<std::uint64_t> words;
  /// Earliest cycle at which the packet may start injecting.
  std::int64_t release_cycle = 0;
};

}  // namespace psync::mesh
