/* SHA-256 block compression on the x86 SHA extensions.

   [sero_sha256_blocks h b off n] compresses the [n] 64-byte blocks of
   [b] at [off] into the chained state [h], an OCaml int array of eight
   32-bit words, exactly as n calls of the OCaml rounds in sha256.ml
   would.  The OCaml caller checks the bounds; nothing here allocates or
   raises.

   The kernel keeps the state in two registers in the order the
   sha256rnds2 instruction wants, ABEF and CDGH, and runs four rounds
   per message vector: each sha256rnds2 does two, taking its two
   (W + K) words from the low half of its third operand.  Message words
   16-63 come four at a time from the previous sixteen:
   sha256msg1 adds sigma0, the aligned add brings in W[t-7], and
   sha256msg2 adds sigma1.

   Only x86-64 builds under GCC or Clang compile the kernel, through a
   function-level target attribute, so no flag of the rest of the build
   changes.  [sero_sha256_native_present] reads CPUID; when it says
   false the OCaml module never calls [sero_sha256_blocks]. */

#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>
#include <stdint.h>

static const uint32_t sha256_k[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* Leaf 7 EBX bit 29 is SHA; leaf 1 ECX bits 9 and 19 are SSSE3 and
   SSE4.1, which the byte shuffle, the aligned add and the blend need. */
static int cpu_has_sha(void)
{
  unsigned int a, b, c, d;
  if (__get_cpuid_max(0, 0) < 7) return 0;
  __cpuid(1, a, b, c, d);
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  __cpuid_count(7, 0, a, b, c, d);
  return (b >> 29) & 1;
}

/* Four rounds on the message vector [m]. */
#define RND4(g, m)                                                        \
  do {                                                                    \
    __m128i wk_ = _mm_add_epi32(                                          \
        (m), _mm_load_si128((const __m128i *)(sha256_k + 4 * (g))));      \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk_);                        \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk_, 0x0E)); \
  } while (0)

/* The next four schedule words into [m0], which holds the oldest four
   of the last sixteen; m1, m2 and m3 hold the later ones in order. */
#define NEXT(m0, m1, m2, m3)                                              \
  m0 = _mm_sha256msg2_epu32(                                              \
      _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1),                         \
                    _mm_alignr_epi8(m3, m2, 4)),                          \
      m3)

__attribute__((target("sha,sse4.1,ssse3")))
static void sha256_blocks(uint32_t st[8], const unsigned char *p, long n)
{
  /* Big-endian words from the block bytes. */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)st), 0xB1);
  __m128i cdgh =
      _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(st + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(t, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, t, 0xF0);
  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    __m128i m1 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    RND4(0, m0);
    RND4(1, m1);
    RND4(2, m2);
    RND4(3, m3);
    NEXT(m0, m1, m2, m3); RND4(4, m0);
    NEXT(m1, m2, m3, m0); RND4(5, m1);
    NEXT(m2, m3, m0, m1); RND4(6, m2);
    NEXT(m3, m0, m1, m2); RND4(7, m3);
    NEXT(m0, m1, m2, m3); RND4(8, m0);
    NEXT(m1, m2, m3, m0); RND4(9, m1);
    NEXT(m2, m3, m0, m1); RND4(10, m2);
    NEXT(m3, m0, m1, m2); RND4(11, m3);
    NEXT(m0, m1, m2, m3); RND4(12, m0);
    NEXT(m1, m2, m3, m0); RND4(13, m1);
    NEXT(m2, m3, m0, m1); RND4(14, m2);
    NEXT(m3, m0, m1, m2); RND4(15, m3);
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  /* Back to A..D and E..H. */
  t = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)st, _mm_blend_epi16(t, cdgh, 0xF0));
  _mm_storeu_si128((__m128i *)(st + 4), _mm_alignr_epi8(cdgh, t, 8));
}

value sero_sha256_native_present(value unit)
{
  (void)unit;
  return Val_bool(cpu_has_sha());
}

value sero_sha256_blocks(value h, value b, value off, value n)
{
  uint32_t st[8];
  int i;
  for (i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  sha256_blocks(st, Bytes_val(b) + Long_val(off), Long_val(n));
  for (i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}

#else

value sero_sha256_native_present(value unit)
{
  (void)unit;
  return Val_false;
}

value sero_sha256_blocks(value h, value b, value off, value n)
{
  (void)h; (void)b; (void)off; (void)n;
  return Val_unit;
}

#endif
