#include "psync/core/scratch.hpp"

namespace psync::core {
namespace {

template <class T>
std::size_t bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::size_t Scratch::capacity_bytes() const {
  return bytes(input) + bytes(image) + bytes(proc) + bytes(stream) +
         bytes(node.words) + bytes(node.offset) + bytes(delivered) +
         bytes(sca.clock) + bytes(sca.counts) + bytes(sca.order) +
         bytes(sca.keys) + bytes(sca.entries) + bytes(sca.entry_at) +
         bytes(sca.latch_ps) + bytes(fft);
}

}  // namespace psync::core
