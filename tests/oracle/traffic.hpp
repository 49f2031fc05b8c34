// Test packet generators for the mesh NoC: transpose writeback, scatter,
// uniform-random and gather-to-corners traffic. Only the tests drive a raw
// mesh::Mesh with synthetic traffic; the machines build their own packets.
#pragma once

#include <cstdint>
#include <vector>

#include "psync/common/rng.hpp"
#include "psync/mesh/flit.hpp"
#include "psync/mesh/mesh.hpp"

namespace psync::mesh {

/// Transpose writeback (Table III): every node except the memory node sends
/// its `elements` data words to `memory_node`, split into packets of
/// `elements_per_packet` (one header flit each). Payloads encode
/// (source, element index) so integrity can be checked end to end.
std::vector<PacketDesc> transpose_writeback_traffic(
    const Mesh& mesh, NodeId memory_node, std::uint32_t elements,
    std::uint32_t elements_per_packet);

/// Scatter (delivery) traffic: the memory node sends `elements` words to
/// every other node, one node at a time (Model I serialized delivery),
/// packetized by `elements_per_packet`.
std::vector<PacketDesc> scatter_traffic(const Mesh& mesh, NodeId memory_node,
                                        std::uint32_t elements,
                                        std::uint32_t elements_per_packet);

/// Uniform-random traffic for network validation: `packets` packets with
/// random (src != dst) pairs and `payload_flits` payload flits each.
std::vector<PacketDesc> uniform_random_traffic(const Mesh& mesh,
                                               std::uint32_t packets,
                                               std::uint32_t payload_flits,
                                               Rng& rng);

/// Gather-to-corners traffic used for the Fig. 5 energy measurement: every
/// node sends `elements` words to its nearest corner memory interface.
std::vector<PacketDesc> gather_to_corners_traffic(
    const Mesh& mesh, std::uint32_t elements,
    std::uint32_t elements_per_packet);

/// Nearest corner node for `n` (NW, NE, SW or SE of the mesh).
NodeId nearest_corner(const Mesh& mesh, NodeId n);

/// Payload encoding helpers (src in the high 32 bits, index low).
std::uint64_t encode_payload(NodeId src, std::uint32_t index);
NodeId payload_src(std::uint64_t payload);
std::uint32_t payload_index(std::uint64_t payload);

}  // namespace psync::mesh
