/* The electrical-read walk of Bitops.erb_run's fast path.

   [sero_erb_chunk] settles the heated dots of one segment chunk of an
   electrical run.  On a heated dot the erb protocol is a pure function
   of its draws (every mrb a coin flip, every mwb a no-op), so the walk
   reads bit 0 of the medium PRNG's next draws and settles each heated
   dot from the next twelve of them through the outcome table bitops.ml
   builds ([erb_outcomes]: draws consumed in bits 0-3, rounds in bits
   4-6, detected in bit 7, 0 when twelve draws leave the dot open).  An
   open dot, four passing rounds with [cycles > 4], runs its rounds one
   at a time.  The walk sets the detected dots' bits of [dst] (the
   caller cleared the run's bits), stores the PRNG state advanced by
   exactly the draws it used, and adds the chunk's clean dots, draws
   (the heated dots' mrb charges) and heated mwb charges to [acc].  The
   OCaml caller checks the run and the bit range; nothing here
   allocates or raises.

   The draws come 64 at a time.  splitmix64's state is a Weyl counter,
   s_n = s_0 + n * gamma modulo 2^64, so draw [n] is mix(s_0 + n *
   gamma) and a batch of draws is independent work.  Two windows make a
   batch: the scalar one, one draw after another in portable C, and on
   an x86-64 CPU whose CPUID and XCR0 report AVX-512F and AVX-512DQ,
   one that mixes eight lanes per step with vpmullq.  Only x86-64
   builds under GCC or Clang compile the vector window, through a
   function-level target attribute, so no flag of the rest of the build
   changes.  [sero_erb_vector_present] reads CPUID and XCR0; when it
   says false the OCaml side never asks for the vector window.  Bit 0
   of a draw reads only the low 32 bits of the final multiply's
   operands, so that multiply is a 32-bit one in both windows. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <stdint.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL

/* Bit [k] of the result is bit 0 of draw [k + 1] from state [z]. */
static uint64_t window_scalar(uint64_t z)
{
  uint64_t w = 0;
  int k;
  for (k = 0; k < 64; k++) {
    uint64_t a;
    uint32_t b;
    z += GOLDEN;
    a = (z ^ (z >> 30)) * MIX1;
    b = (uint32_t)(a ^ (a >> 27)) * (uint32_t)MIX2;
    w |= (uint64_t)((b ^ (b >> 31)) & 1) << k;
  }
  return w;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

/* Leaf 7 EBX bits 16 and 17 are AVX-512F and AVX-512DQ; the OS must
   save the opmask and all 512 bits of the vector registers (XCR0 bits
   1, 2, 5, 6 and 7), which XGETBV reads once leaf 1 ECX bit 27
   (OSXSAVE) says it may. */
static int cpu_has_avx512dq(void)
{
  unsigned int a, b, c, d, lo, hi;
  if (__get_cpuid_max(0, 0) < 7) return 0;
  __cpuid(1, a, b, c, d);
  if (!(c & (1u << 27))) return 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  (void)hi;
  if ((lo & 0xE6) != 0xE6) return 0;
  __cpuid_count(7, 0, a, b, c, d);
  return ((b >> 16) & 3) == 3;
}

/* Lane [k] of step [j] mixes draw [8 j + k + 1] into bit [8 j + k]. */
__attribute__((target("avx512f,avx512dq")))
static uint64_t window_vector(uint64_t z)
{
  const __m512i m1 = _mm512_set1_epi64((long long)MIX1);
  const __m512i m2 = _mm512_set1_epi64((long long)MIX2);
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i step = _mm512_set1_epi64((long long)(8 * GOLDEN));
  __m512i s = _mm512_add_epi64(
      _mm512_set1_epi64((long long)z),
      _mm512_set_epi64((long long)(8 * GOLDEN), (long long)(7 * GOLDEN),
                       (long long)(6 * GOLDEN), (long long)(5 * GOLDEN),
                       (long long)(4 * GOLDEN), (long long)(3 * GOLDEN),
                       (long long)(2 * GOLDEN), (long long)GOLDEN));
  uint64_t w = 0;
  int j;
  for (j = 0; j < 8; j++) {
    __m512i a = _mm512_xor_si512(s, _mm512_srli_epi64(s, 30));
    a = _mm512_mullo_epi64(a, m1);
    a = _mm512_xor_si512(a, _mm512_srli_epi64(a, 27));
    a = _mm512_mul_epu32(a, m2);
    a = _mm512_xor_si512(a, _mm512_srli_epi64(a, 31));
    w |= (uint64_t)_mm512_test_epi64_mask(a, one) << (8 * j);
    s = _mm512_add_epi64(s, step);
  }
  return w;
}

#else

static int cpu_has_avx512dq(void) { return 0; }
static uint64_t window_vector(uint64_t z) { return window_scalar(z); }

#endif

#if defined(__GNUC__) || defined(__clang__)
#define CTZ64(x) __builtin_ctzll(x)
#else
static int CTZ64(uint64_t x)
{
  int n = 0;
  while (!(x & 1)) { x >>= 1; n++; }
  return n;
}
#endif

/* The draws' bits as a stream.  [cur] holds the current batch's draws
   from [pos] on, shifted down to bit 0; [next] is the batch after it
   once [have_next] says it is loaded, and [z] the state of the last
   draw loaded. */
struct reader {
  uint64_t (*window)(uint64_t);
  uint64_t z, cur, next;
  int pos, have_next;
  long used;
};

/* The next twelve draws' bits. */
static inline unsigned peek12(struct reader *r)
{
  if (r->pos <= 52) return (unsigned)(r->cur & 4095);
  if (!r->have_next) {
    r->next = r->window(r->z);
    r->z += 64 * GOLDEN;
    r->have_next = 1;
  }
  return (unsigned)((r->cur | (r->next << (64 - r->pos))) & 4095);
}

/* Take [n <= 12] draws, after a [peek12].  The current batch may run
   out exactly; past its end the next one, which the peek loaded, takes
   over. */
static inline void consume(struct reader *r, int n)
{
  r->used += n;
  r->pos += n;
  if (r->pos <= 64)
    r->cur >>= n;
  else {
    r->pos -= 64;
    r->cur = r->next >> r->pos;
    r->have_next = 0;
  }
}

static inline int draw(struct reader *r)
{
  int b = (int)(peek12(r) & 1);
  consume(r, 1);
  return b;
}

static inline void set_bit(unsigned char *dst, long i)
{
  dst[i >> 3] |= (unsigned char)(0x80 >> (i & 7));
}

static inline uint64_t load_le64(const unsigned char *p)
{
  return (uint64_t)p[0] | ((uint64_t)p[1] << 8) | ((uint64_t)p[2] << 16)
         | ((uint64_t)p[3] << 24) | ((uint64_t)p[4] << 32)
         | ((uint64_t)p[5] << 40) | ((uint64_t)p[6] << 48)
         | ((uint64_t)p[7] << 56);
}

static uint64_t (*const windows[2])(uint64_t) = {window_scalar, window_vector};

value sero_erb_vector_present(value unit)
{
  (void)unit;
  return Val_bool(cpu_has_avx512dq());
}

value sero_erb_chunk(value states, value vbase, value vstart, value vlen,
                     value vdst, value vdst_off, value table, value vcycles,
                     value rng, value acc, value vector)
{
  const unsigned char *sb = (const unsigned char *)Caml_ba_data_val(states);
  unsigned char *dst = Bytes_val(vdst);
  long base = Long_val(vbase), d = Long_val(vstart);
  long stop = d + Long_val(vlen), dst_off = Long_val(vdst_off);
  long cycles = Long_val(vcycles), heated = 0, mwb = 0;
  /* The table's row for [cycles]; every [cycles >= 5] shares the last. */
  const unsigned char *row = (const unsigned char *)String_val(table)
                             + (((cycles < 5 ? cycles : 5) - 1) << 12);
  uint64_t s0;
  struct reader r;

  memcpy(&s0, Bytes_val(rng), 8);
  r.window = windows[Bool_val(vector)];
  r.z = s0;
  r.cur = 0;
  r.next = 0;
  r.pos = 64;
  r.have_next = 0;
  r.used = 0;

  while (d < stop) {
    /* The heated fields of the next state bytes inside the run, one
       per even bit: eight bytes (32 dots) at a time from a byte
       boundary, otherwise the byte at [d]. */
    long q = d & ~3L;
    uint64_t h;
    if (q == d && stop - d >= 32) {
      h = (load_le64(sb + (d >> 2) - base) >> 1) & 0x5555555555555555ULL;
      d += 32;
    } else {
      long hi = stop - q < 4 ? stop - q : 4;
      h = ((uint64_t)(sb[(q >> 2) - base] >> 1) & 0x55)
          & (((1u << (2 * hi)) - 1) & ~((1u << (2 * (d - q))) - 1));
      d = q + 4;
    }
    for (; h; h &= h - 1) {
      long dot = q + (CTZ64(h) >> 1);
      unsigned e = row[peek12(&r)];
      heated++;
      if (e) {
        consume(&r, (int)(e & 15));
        mwb += 2 * ((e >> 4) & 7);
        if (e & 0x80) set_bit(dst, dot + dst_off);
      } else {
        /* Past four passing rounds: the rounds one by one from this
           dot's first draw. */
        long c;
        for (c = 0; c < cycles; c++) {
          int original = draw(&r), check1 = draw(&r);
          mwb += 2;
          if (check1 == original || draw(&r) != original) {
            set_bit(dst, dot + dst_off);
            break;
          }
        }
      }
    }
  }

  s0 += (uint64_t)r.used * GOLDEN;
  memcpy(Bytes_val(rng), &s0, 8);
  Field(acc, 0) = Val_long(Long_val(Field(acc, 0)) + Long_val(vlen) - heated);
  Field(acc, 1) = Val_long(Long_val(Field(acc, 1)) + r.used);
  Field(acc, 2) = Val_long(Long_val(Field(acc, 2)) + mwb);
  return Val_unit;
}

value sero_erb_chunk_byte(value *argv, int argn)
{
  (void)argn;
  return sero_erb_chunk(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8], argv[9], argv[10]);
}
