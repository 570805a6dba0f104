#include "host.h"

#include <sched.h>

#include <sstream>
#include <utility>
#include <vector>

#include "crypto/cpu.h"

namespace bench {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

std::string fingerprint_json(int jobs) {
  // (fingerprint name, CPUID feature); empty off x86-64.
  std::vector<std::pair<const char*, bool>> flags;
#if defined(__x86_64__)
  __builtin_cpu_init();
  flags = {{"aes", __builtin_cpu_supports("aes")},
           {"sha_ni", __builtin_cpu_supports("sha")},
           {"vaes", __builtin_cpu_supports("vaes")},
           {"avx512f", __builtin_cpu_supports("avx512f")}};
#endif
  std::ostringstream out;
  out << "{\"nproc\":" << usable_cpus() << ",\"jobs\":" << jobs
      << ",\"cpu_flags\":[";
  bool first = true;
  for (const auto& [name, present] : flags) {
    if (!present) continue;
    out << (first ? "" : ",") << '"' << name << '"';
    first = false;
  }
  out << "],\"compiler\":\"" << BENCH_COMPILER << "\",\"build_type\":\""
      << BENCH_BUILD_TYPE << "\",\"crypto_backend\":\""
      << crypto::backend_name(crypto::resolve_backend()) << "\"}";
  return out.str();
}

}  // namespace bench
