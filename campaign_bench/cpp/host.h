// Host fingerprint recorded with every result set: two result sets are
// comparable only when their fingerprints match (compare.py enforces it).
#pragma once

#include <string>

namespace bench {

/// Logical CPUs this process may run on (sched_getaffinity).
int usable_cpus();

/// One-line JSON object: nproc, jobs, the CPU flags that select crypto
/// paths (aes, sha_ni, vaes, avx512f), compiler and version, build type
/// and the resolved AES-GCM backend.
std::string fingerprint_json(int jobs);

}  // namespace bench
