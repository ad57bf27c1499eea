// Host fingerprint for committed measurements: the hardware and build a
// BENCH_*.json number was taken on, so a reader can tell whether two files
// are comparable.
#pragma once

#include "support/json.hpp"

namespace gtrix {

/// {"nproc", "cpu_model", "l2_kb", "l3_kb", "compiler", "ndebug",
///  "debug_checks"} of the running process and this build.
Json host_fingerprint();

}  // namespace gtrix
