#include "obs/host.hpp"

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace gtrix {

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    const std::string s = brand;  // stops at the first NUL
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

double cache_kb(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<double>(v) / 1024.0 : 0.0;
}

}  // namespace

Json host_fingerprint() {
  Json j = Json::object();
  j.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  j.set("cpu_model", cpu_model());
  j.set("l2_kb", cache_kb(_SC_LEVEL2_CACHE_SIZE));
  j.set("l3_kb", cache_kb(_SC_LEVEL3_CACHE_SIZE));
#if defined(__clang__)
  j.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  j.set("compiler", std::string("gcc ") + __VERSION__);
#else
  j.set("compiler", std::string(__VERSION__));
#endif
#ifdef NDEBUG
  j.set("ndebug", true);
#else
  j.set("ndebug", false);
#endif
#ifdef GTRIX_DEBUG_CHECKS
  j.set("debug_checks", true);
#else
  j.set("debug_checks", false);
#endif
  return j;
}

}  // namespace gtrix
