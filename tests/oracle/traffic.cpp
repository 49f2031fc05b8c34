#include "oracle/traffic.hpp"

#include "psync/common/check.hpp"
#include "rng_draws.hpp"

namespace psync::mesh {

std::uint64_t encode_payload(NodeId src, std::uint32_t index) {
  return (static_cast<std::uint64_t>(src) << 32) | index;
}
NodeId payload_src(std::uint64_t payload) {
  return static_cast<NodeId>(payload >> 32);
}
std::uint32_t payload_index(std::uint64_t payload) {
  return static_cast<std::uint32_t>(payload & 0xFFFFFFFFULL);
}

std::vector<PacketDesc> transpose_writeback_traffic(
    const Mesh& mesh, NodeId memory_node, std::uint32_t elements,
    std::uint32_t elements_per_packet) {
  PSYNC_CHECK(elements_per_packet > 0);
  PSYNC_CHECK(elements % elements_per_packet == 0);
  std::vector<PacketDesc> out;
  for (NodeId n = 0; n < mesh.nodes(); ++n) {
    if (n == memory_node) continue;
    for (std::uint32_t e = 0; e < elements; e += elements_per_packet) {
      PacketDesc d;
      d.src = n;
      d.dst = memory_node;
      d.payload_flits = elements_per_packet;
      d.payload_base = encode_payload(n, e);
      out.push_back(d);
    }
  }
  return out;
}

std::vector<PacketDesc> scatter_traffic(const Mesh& mesh, NodeId memory_node,
                                        std::uint32_t elements,
                                        std::uint32_t elements_per_packet) {
  PSYNC_CHECK(elements_per_packet > 0);
  PSYNC_CHECK(elements % elements_per_packet == 0);
  std::vector<PacketDesc> out;
  for (NodeId n = 0; n < mesh.nodes(); ++n) {
    if (n == memory_node) continue;
    for (std::uint32_t e = 0; e < elements; e += elements_per_packet) {
      PacketDesc d;
      d.src = memory_node;
      d.dst = n;
      d.payload_flits = elements_per_packet;
      d.payload_base = encode_payload(memory_node, e);
      out.push_back(d);
    }
  }
  return out;
}

std::vector<PacketDesc> uniform_random_traffic(const Mesh& mesh,
                                               std::uint32_t packets,
                                               std::uint32_t payload_flits,
                                               Rng& rng) {
  PSYNC_CHECK(mesh.nodes() >= 2);
  std::vector<PacketDesc> out;
  out.reserve(packets);
  for (std::uint32_t i = 0; i < packets; ++i) {
    PacketDesc d;
    d.src = static_cast<NodeId>(next_below(rng, mesh.nodes()));
    do {
      d.dst = static_cast<NodeId>(next_below(rng, mesh.nodes()));
    } while (d.dst == d.src);
    d.payload_flits = payload_flits;
    d.payload_base = encode_payload(d.src, i);
    out.push_back(d);
  }
  return out;
}

NodeId nearest_corner(const Mesh& mesh, NodeId n) {
  const auto& p = mesh.params();
  const std::uint32_t x = mesh.x_of(n);
  const std::uint32_t y = mesh.y_of(n);
  const std::uint32_t cx = (x < p.width - x - 1) ? 0 : p.width - 1;
  const std::uint32_t cy = (y < p.height - y - 1) ? 0 : p.height - 1;
  return mesh.node_at(cx, cy);
}

std::vector<PacketDesc> gather_to_corners_traffic(
    const Mesh& mesh, std::uint32_t elements,
    std::uint32_t elements_per_packet) {
  PSYNC_CHECK(elements_per_packet > 0);
  PSYNC_CHECK(elements % elements_per_packet == 0);
  std::vector<PacketDesc> out;
  for (NodeId n = 0; n < mesh.nodes(); ++n) {
    const NodeId corner = nearest_corner(mesh, n);
    if (corner == n) continue;
    for (std::uint32_t e = 0; e < elements; e += elements_per_packet) {
      PacketDesc d;
      d.src = n;
      d.dst = corner;
      d.payload_flits = elements_per_packet;
      d.payload_base = encode_payload(n, e);
      out.push_back(d);
    }
  }
  return out;
}

}  // namespace psync::mesh
