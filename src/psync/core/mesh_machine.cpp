#include "psync/core/mesh_machine.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "psync/common/check.hpp"
#include "psync/fft/fft.hpp"
#include "psync/fft/fft2d.hpp"

namespace psync::core {
namespace {

constexpr std::int64_t kMaxPhaseCycles = 400'000'000;

/// Ejection sink for a processor node during delivery phases: stores words
/// at (head tag + position) into a local buffer and tracks completion.
class ProcSink final : public mesh::Sink {
 public:
  void expect(std::uint64_t elements) { expected_ = elements; }
  void attach(std::vector<Word>* buffer) { buffer_ = buffer; }

  bool accept(const mesh::Flit& flit, std::int64_t cycle) override {
    if (used_) return false;
    used_ = true;
    if (flit.is_head() && !flit.is_tail()) {
      base_ = flit.payload;
      pos_ = 0;
      return true;
    }
    PSYNC_CHECK(buffer_ != nullptr);
    const std::uint64_t idx = base_ + pos_;
    PSYNC_CHECK_MSG(idx < buffer_->size(), "delivery outside local buffer");
    (*buffer_)[idx] = flit.payload;
    ++pos_;
    ++received_;
    last_arrival_ = cycle;
    return true;
  }

  void step(std::int64_t) override { used_ = false; }

  bool done() const { return received_ >= expected_; }
  std::int64_t last_arrival() const { return last_arrival_; }
  std::uint64_t received() const { return received_; }

 private:
  std::vector<Word>* buffer_ = nullptr;
  std::uint64_t expected_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t pos_ = 0;
  std::int64_t last_arrival_ = 0;
  bool used_ = false;
};

// A config can reach this: `words` (> 0) must split into whole packets.
void check_packets(std::uint64_t words, std::uint64_t packet) {
  if (words == 0 || packet == 0 || words % packet != 0) {
    throw ConfigError("MeshMachine: " + std::to_string(words) +
                      " words per node do not split into packets of " +
                      std::to_string(packet));
  }
}

// Shared by every instantiation of the stepping loop, so the message is
// built in one place.
[[noreturn]] void throw_cycle_cap(const char* phase) {
  throw DivergenceError(std::string(phase) + ": exceeded cycle cap");
}

}  // namespace

template <class Done>
void MeshMachine::step_until(mesh::Mesh& net, Done done,
                             const char* phase) const {
  std::uint64_t steps = 0;
  while (!done()) {
    if ((++steps & 0xFFF) == 0 && cancel_ != nullptr) cancel_->poll();
    net.fast_forward(kMaxPhaseCycles);
    net.step();
    if (net.cycle() > kMaxPhaseCycles) throw_cycle_cap(phase);
  }
}

MeshMachine::MeshMachine(MeshMachineParams params) : params_(params) {
  if (params_.grid == 0) throw ConfigError("MeshMachine: zero grid");
  const std::size_t p = params_.grid * params_.grid;
  if (params_.matrix_rows % p != 0 || params_.matrix_cols % p != 0) {
    throw ConfigError(
        "MeshMachine: processor count must divide both matrix dimensions");
  }
  if (params_.memory_node >= p) {
    throw ConfigError("MeshMachine: memory node outside the grid");
  }
  const std::uint64_t epp = params_.elements_per_packet;
  // The fft2d flow moves each processor's row and column block in packets.
  check_packets(params_.matrix_rows / p * params_.matrix_cols, epp);
  check_packets(params_.matrix_cols / p * params_.matrix_rows, epp);
  params_.net.width = static_cast<std::uint32_t>(params_.grid);
  params_.net.height = static_cast<std::uint32_t>(params_.grid);
}

TransposeRunReport MeshMachine::run_transpose_writeback(
    std::uint32_t elements_per_node) {
  mesh::Mesh net(params_.net);
  const std::uint64_t total =
      static_cast<std::uint64_t>(net.nodes()) * elements_per_node;
  mesh::MemoryInterface mi(params_.mi, total);
  net.set_sink(params_.memory_node, &mi);

  check_packets(elements_per_node, params_.elements_per_packet);
  for (mesh::NodeId n = 0; n < net.nodes(); ++n) {
    for (std::uint32_t e = 0; e < elements_per_node;
         e += params_.elements_per_packet) {
      mesh::PacketDesc d;
      d.src = n;
      d.dst = params_.memory_node;
      d.payload_flits = params_.elements_per_packet;
      d.payload_base = static_cast<std::uint64_t>(n) * elements_per_node + e;
      net.inject(d);
    }
  }

  step_until(net, [&] { return mi.done(); }, "run_transpose_writeback");

  TransposeRunReport rep;
  rep.completion_cycle = mi.completion_cycle();
  rep.completion_ns = static_cast<double>(rep.completion_cycle) * cycle_ns();
  rep.elements = mi.elements_received();
  rep.packets = mi.packets_received();
  rep.cycles_per_element =
      rep.elements > 0 ? static_cast<double>(rep.completion_cycle) /
                             static_cast<double>(rep.elements)
                       : 0.0;
  rep.activity = net.activity();
  rep.mean_packet_latency_cycles = net.packet_latency().mean();
  return rep;
}

TransposeRunReport MeshMachine::run_transpose_writeback_multiport(
    std::uint32_t elements_per_node, std::uint32_t ports) {
  if (ports != 1 && ports != 2 && ports != 4) {
    throw SimulationError("multiport transpose: ports must be 1, 2 or 4");
  }
  check_packets(elements_per_node,
                std::uint64_t{params_.elements_per_packet} * ports);

  mesh::Mesh net(params_.net);
  const auto g = static_cast<std::uint32_t>(params_.grid);
  const mesh::NodeId corner[4] = {net.node_at(0, 0), net.node_at(g - 1, g - 1),
                                  net.node_at(g - 1, 0), net.node_at(0, g - 1)};

  const std::uint64_t per_port =
      static_cast<std::uint64_t>(net.nodes()) * elements_per_node / ports;
  std::vector<std::unique_ptr<mesh::MemoryInterface>> mis;
  for (std::uint32_t p = 0; p < ports; ++p) {
    mis.push_back(std::make_unique<mesh::MemoryInterface>(params_.mi, per_port));
    net.set_sink(corner[p], mis.back().get());
  }

  // Column-partition each node's row across the ports.
  const std::uint32_t per_node_per_port = elements_per_node / ports;
  for (mesh::NodeId n = 0; n < net.nodes(); ++n) {
    for (std::uint32_t p = 0; p < ports; ++p) {
      for (std::uint32_t e = 0; e < per_node_per_port;
           e += params_.elements_per_packet) {
        mesh::PacketDesc d;
        d.src = n;
        d.dst = corner[p];
        d.payload_flits = params_.elements_per_packet;
        d.payload_base = static_cast<std::uint64_t>(n) * elements_per_node +
                         static_cast<std::uint64_t>(p) * per_node_per_port + e;
        net.inject(d);
      }
    }
  }

  auto all_done = [&] {
    for (const auto& mi : mis) {
      if (!mi->done()) return false;
    }
    return true;
  };
  step_until(net, all_done, "multiport transpose");

  TransposeRunReport rep;
  for (const auto& mi : mis) {
    rep.completion_cycle = std::max(rep.completion_cycle, mi->completion_cycle());
    rep.elements += mi->elements_received();
    rep.packets += mi->packets_received();
  }
  rep.completion_ns = static_cast<double>(rep.completion_cycle) * cycle_ns();
  rep.cycles_per_element =
      rep.elements > 0 ? static_cast<double>(rep.completion_cycle) /
                             static_cast<double>(rep.elements)
                       : 0.0;
  rep.activity = net.activity();
  rep.mean_packet_latency_cycles = net.packet_latency().mean();
  return rep;
}

MeshRunReport MeshMachine::run_fft2d(
    const std::vector<std::complex<double>>& input, bool verify) {
  const std::size_t P = params_.grid * params_.grid;
  const std::size_t R = params_.matrix_rows;
  const std::size_t C = params_.matrix_cols;
  const std::size_t rpp = R / P;
  const std::size_t cpp = C / P;
  const std::uint32_t epp = params_.elements_per_packet;
  PSYNC_CHECK(input.size() == R * C);

  std::vector<Processor> procs;
  procs.reserve(P);
  for (std::size_t i = 0; i < P; ++i) {
    procs.emplace_back(static_cast<std::uint32_t>(i), params_.exec);
  }
  std::vector<std::vector<std::complex<double>>> mem(P);  // local memories

  // Activity accumulated across the per-phase network instances, for the
  // ORION energy accounting.
  mesh::MeshActivity activity{};
  auto accumulate = [&activity](const mesh::MeshActivity& a) {
    activity.buffer_writes += a.buffer_writes;
    activity.buffer_reads += a.buffer_reads;
    activity.crossbar_traversals += a.crossbar_traversals;
    activity.link_traversals += a.link_traversals;
    activity.arbitrations += a.arbitrations;
    activity.injected_flits += a.injected_flits;
    activity.ejected_flits += a.ejected_flits;
    activity.injected_packets += a.injected_packets;
    activity.ejected_packets += a.ejected_packets;
  };

  // Serial Model I delivery of a row-major (rows x cols) image from the
  // memory node: processor i receives its `per_proc` words tagged with
  // proc-local indices. Returns per-proc delivery-done times (ns, absolute).
  auto deliver = [&](const std::vector<Word>& image, std::size_t per_proc,
                     double start_ns, Phase& phase) {
    mesh::Mesh net(params_.net);
    std::vector<ProcSink> sinks(P);
    std::vector<std::vector<Word>> local(P, std::vector<Word>(per_proc));
    for (std::size_t i = 0; i < P; ++i) {
      sinks[i].expect(per_proc);
      sinks[i].attach(&local[i]);
      net.set_sink(static_cast<mesh::NodeId>(i), &sinks[i]);
    }
    for (std::size_t i = 0; i < P; ++i) {
      for (std::size_t e = 0; e < per_proc; e += epp) {
        mesh::PacketDesc d;
        d.src = params_.memory_node;
        d.dst = static_cast<mesh::NodeId>(i);
        d.payload_flits = epp;
        d.payload_base = e;
        d.words.assign(image.begin() + static_cast<std::ptrdiff_t>(i * per_proc + e),
                       image.begin() + static_cast<std::ptrdiff_t>(i * per_proc + e + epp));
        net.inject(d);
      }
    }
    auto all_done = [&] {
      for (const auto& s : sinks) {
        if (!s.done()) return false;
      }
      return true;
    };
    step_until(net, all_done, "MeshMachine delivery");
    std::vector<double> done_ns(P);
    double last = start_ns;
    for (std::size_t i = 0; i < P; ++i) {
      done_ns[i] = start_ns +
                   static_cast<double>(sinks[i].last_arrival() + 1) * cycle_ns();
      last = std::max(last, done_ns[i]);
      mem[i].resize(per_proc);
      for (std::size_t e = 0; e < per_proc; ++e) {
        mem[i][e] = unpack_sample(local[i][e]);
      }
    }
    phase.start_ns = start_ns;
    phase.end_ns = last;
    accumulate(net.activity());
    return done_ns;
  };

  // Writeback of every processor's local block to the single memory port,
  // with per-processor release at its compute-done time. `addr_of` maps a
  // source-linear element index to a memory image index.
  auto writeback = [&](const std::vector<double>& ready_ns,
                       std::size_t per_proc, auto addr_of, Phase& phase,
                       std::vector<Word>& out_image) {
    mesh::Mesh net(params_.net);
    const std::uint64_t total = static_cast<std::uint64_t>(P) * per_proc;
    mesh::MemoryInterface mi(params_.mi, total);
    out_image.assign(total, 0);
    mi.set_collector([&](mesh::NodeId, std::uint64_t idx, std::uint64_t word) {
      out_image[addr_of(idx)] = word;
    });
    net.set_sink(params_.memory_node, &mi);

    const double t0 = *std::min_element(ready_ns.begin(), ready_ns.end());
    for (std::size_t i = 0; i < P; ++i) {
      const auto release = static_cast<std::int64_t>(
          std::ceil((ready_ns[i] - t0) / cycle_ns()));
      for (std::size_t e = 0; e < per_proc; e += epp) {
        mesh::PacketDesc d;
        d.src = static_cast<mesh::NodeId>(i);
        d.dst = params_.memory_node;
        d.payload_flits = epp;
        d.payload_base = static_cast<std::uint64_t>(i) * per_proc + e;
        d.words.resize(epp);
        for (std::uint32_t w = 0; w < epp; ++w) {
          d.words[w] = pack_sample(mem[i][e + w]);
        }
        d.release_cycle = release;
        net.inject(d);
      }
    }
    step_until(net, [&] { return mi.done(); }, "MeshMachine writeback");
    phase.start_ns = t0;
    phase.end_ns = t0 + static_cast<double>(mi.completion_cycle()) * cycle_ns();
    accumulate(net.activity());
    return phase.end_ns;
  };

  // ---- Pass 1: deliver rows, row FFTs ----
  std::vector<Word> image(R * C);
  for (std::size_t i = 0; i < input.size(); ++i) image[i] = pack_sample(input[i]);

  Phase p_sc1{"scatter_rows", 0, 0};
  const auto deliver1_done = deliver(image, rpp * C, 0.0, p_sc1);

  Phase p_fft1{"row_ffts", 0, 0};
  std::vector<double> fft1_done(P);
  {
    double first = deliver1_done[0];
    double last = 0.0;
    for (std::size_t i = 0; i < P; ++i) {
      const double ns = procs[i].fft_rows(mem[i], rpp, C);
      fft1_done[i] = deliver1_done[i] + ns;
      first = std::min(first, deliver1_done[i]);
      last = std::max(last, fft1_done[i]);
    }
    p_fft1.start_ns = first;
    p_fft1.end_ns = last;
  }

  // ---- Transpose writeback through the single memory port ----
  Phase p_tr{"mesh_transpose", 0, 0};
  std::vector<Word> image_t;  // C x R row-major (transposed layout)
  const double t_tr_end = writeback(
      fft1_done, rpp * C,
      [&](std::uint64_t idx) {
        const std::uint64_t g = idx / C;  // global source row
        const std::uint64_t c = idx % C;
        return c * R + g;
      },
      p_tr, image_t);

  // ---- Pass 2: deliver columns, column FFTs ----
  Phase p_sc2{"scatter_cols", 0, 0};
  const auto deliver2_done = deliver(image_t, cpp * R, t_tr_end, p_sc2);

  Phase p_fft2{"col_ffts", 0, 0};
  std::vector<double> fft2_done(P);
  {
    double first = deliver2_done[0];
    double last = 0.0;
    for (std::size_t i = 0; i < P; ++i) {
      const double ns = procs[i].fft_rows(mem[i], cpp, R);
      fft2_done[i] = deliver2_done[i] + ns;
      first = std::min(first, deliver2_done[i]);
      last = std::max(last, fft2_done[i]);
    }
    p_fft2.start_ns = first;
    p_fft2.end_ns = last;
  }

  // ---- Final writeback (natural order) ----
  Phase p_wb{"mesh_writeback", 0, 0};
  const double t_end = writeback(
      fft2_done, cpp * R, [](std::uint64_t idx) { return idx; }, p_wb, image_);

  // ---- Report ----
  MeshRunReport rep;
  rep.phases = {p_sc1, p_fft1, p_tr, p_sc2, p_fft2, p_wb};
  rep.total_ns = t_end;
  rep.reorg_ns = p_tr.duration_ns() + p_sc2.duration_ns();

  fft::OpCount total_ops;
  double busy = 0.0;
  for (const auto& proc : procs) {
    total_ops += proc.ops();
    busy += proc.busy_ns();
  }
  rep.compute_efficiency =
      rep.total_ns > 0 ? busy / (static_cast<double>(P) * rep.total_ns) : 0.0;
  rep.flops = total_ops.real_mults + total_ops.real_adds;
  rep.gflops =
      rep.total_ns > 0 ? static_cast<double>(rep.flops) / rep.total_ns : 0.0;

  // Energy: payload bits = every sample word moved over the network (the
  // orion report normalizes per payload bit; we keep the raw totals).
  const std::uint64_t payload_bits =
      activity.ejected_flits * params_.sample_bits;
  const mesh::OrionReport orion =
      mesh::evaluate(params_.orion, activity, params_.grid, payload_bits);
  rep.comm_energy_pj = orion.total_pj.value();
  rep.compute_energy_pj = params_.exec.compute_energy_pj(total_ops);

  if (verify) {
    std::vector<std::complex<double>> ref(input);
    fft::fft2d(ref, R, C, /*restore_layout=*/false);
    rep.max_error_vs_reference = fft::normalized_max_error(result(), ref);
  }
  return rep;
}

std::vector<std::complex<double>> MeshMachine::result() const {
  std::vector<std::complex<double>> out;
  out.reserve(image_.size());
  for (Word w : image_) out.push_back(unpack_sample(w));
  return out;
}

}  // namespace psync::core
