// The Table III transpose-writeback machine that the multiport test and the
// mesh ablation assertions share: a grid x grid wormhole mesh whose nodes
// send their elements in 32-element packets (one DRAM row each) to the
// single corner memory port, t_p = 1, no DRAM row-switch penalty. The
// ablations run it at grid = 16 with 256 elements per node.
#pragma once

#include <cstddef>

#include "psync/core/mesh_machine.hpp"

namespace psync::core {

inline MeshMachineParams transpose_writeback_params(std::size_t grid) {
  MeshMachineParams p;
  p.grid = grid;
  p.matrix_rows = grid * grid;
  p.matrix_cols = 256;
  p.elements_per_packet = 32;
  p.mi.reorder_cycles_per_element = 1;
  p.mi.dram.row_switch_cycles = 0;
  return p;
}

}  // namespace psync::core
