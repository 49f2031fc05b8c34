// Optical fault injection for PSCAN transactions.
//
// The word-level fault model (dead wavelengths, random BER) lives in
// psync/reliability/fault_model.hpp so the reliability layer — SECDED/CRC
// framing, retry/replay, lane failover (psync/reliability/channel.hpp) —
// can sit below core in the link order. This header re-exports those names
// for core code.
//
// Faults apply to the *words* a transaction carries, leaving the timing
// untouched (light arrives either way; only the data is wrong). Combined
// with the timing faults PscanTopology::skew_error_ps injects, this covers
// the failure envelope of the transport.
#pragma once

#include "psync/reliability/fault_model.hpp"

namespace psync::core {

using reliability::FaultModel;
using reliability::FaultReport;
using reliability::FaultStream;

}  // namespace psync::core
