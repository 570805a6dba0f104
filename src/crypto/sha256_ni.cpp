// SHA-NI kernel. This file is compiled with -msha -msse4.1 -mssse3
// (per-file, see CMakeLists.txt); nothing outside may assume those ISA
// extensions.
//
// SHA256RNDS2 runs two rounds on the state split as ABEF / CDGH (high
// to low lanes) with the two W+K words in the low lanes of its third
// operand; SHA256MSG1/MSG2 compute the message schedule four words at
// a time. This is the standard arrangement from Intel's SHA extensions
// white paper (Gulley et al., 2013).
#ifdef QREPRO_HAVE_SHANI

#include "crypto/sha256_ni.h"

#include <immintrin.h>

namespace crypto::shani {

void compress(uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
  // Big-endian message words -> little-endian lanes.
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto* k = reinterpret_cast<const __m128i*>(kSha256RoundConstants.data());

  // state[0..7] = A..H  ->  abef = [F E B A], cdgh = [H G D C] (lanes 0..3).
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);         // [B A D C]
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);       // [H G F E]
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // [F E B A]
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // [H G D C]

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    // w[g] holds message words 4g..4g+3. w[g + 3] is started by MSG1
    // two groups before it is needed and finished by MSG2 one group
    // before; full unrolling keeps the array in registers.
    __m128i w[16];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4)
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kBswap);
      __m128i wk = _mm_add_epi32(w[g], _mm_loadu_si128(k + g));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        __m128i next = _mm_add_epi32(w[g + 1], _mm_alignr_epi8(w[g], w[g - 1], 4));
        w[g + 1] = _mm_sha256msg2_epu32(next, w[g]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g < 13) w[g + 3] = _mm_sha256msg1_epu32(w[g - 1], w[g]);
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);        // [A B E F]
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);       // [G H C D]
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // [A B C D]
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));     // [E F G H]
}

}  // namespace crypto::shani

#endif  // QREPRO_HAVE_SHANI
