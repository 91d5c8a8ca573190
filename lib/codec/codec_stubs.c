/* The sector codec's word loops: CRC-32, the Reed-Solomon remainder
   behind Rs.parity_into and the decoder's syndromes, and the
   four-syndrome clean screen.

   Every kernel is a pure function of its input bytes: it reads them
   with explicit little-endian loads, so the results do not depend on
   the host's byte order.  The OCaml callers check every range before a
   kernel is reached (as [len > length - off], which cannot wrap);
   nothing here allocates or raises.  The CRC and screen tables are
   built by [sero_crc32_init] and [sero_rs_init], which crc32.ml and
   rs.ml call at module initialisation, before any worker domain
   exists; a code's remainder table is built by Rs.make and passed in.

   The remainder and the screen take up to three slices per call and
   advance their dependent chains in one loop, one eight-byte step of
   each slice per iteration.  A single chain is bound by the latency of
   its step (a table load, then the xors that feed the next load);
   three independent chains fill that latency with each other's work. */

#include <caml/mlvalues.h>
#include <stdint.h>

static inline uint64_t load_le64(const unsigned char *p)
{
  return (uint64_t)p[0] | ((uint64_t)p[1] << 8) | ((uint64_t)p[2] << 16)
         | ((uint64_t)p[3] << 24) | ((uint64_t)p[4] << 32)
         | ((uint64_t)p[5] << 40) | ((uint64_t)p[6] << 48)
         | ((uint64_t)p[7] << 56);
}

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* The [n < 8] bytes at [p] in the top [n] bytes of a word, p[0] lowest
   of them: the last [n] bytes of an eight-byte step whose first
   [8 - n] are zero.  Leading zeros change neither a remainder nor a
   syndrome that starts from zero, so a slice's first [len mod 8] bytes
   take one step of their own. */
static inline uint64_t load_head(const unsigned char *p, long n)
{
  uint64_t w = 0;
  long k;
  for (k = 0; k < n; k++) w |= (uint64_t)p[k] << (8 * (8 - n + k));
  return w;
}

/* {1 CRC-32}

   IEEE 802.3, reflected polynomial 0xEDB88320, slicing by sixteen:
   crc_t[k][n] is the CRC of byte [n] followed by [k] zero bytes, so
   sixteen input bytes fold into sixteen independent lookups per step,
   four of them on the running CRC.  A tail takes one step of eight and
   one of four bytes where it can, then goes byte by byte. */

static uint32_t crc_t[16][256];

value sero_crc32_init(value unit)
{
  uint32_t n, c;
  int k;
  (void)unit;
  for (n = 0; n < 256; n++) {
    c = n;
    for (k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_t[0][n] = c;
  }
  for (k = 1; k < 16; k++)
    for (n = 0; n < 256; n++)
      crc_t[k][n] = crc_t[0][crc_t[k - 1][n] & 0xFF] ^ (crc_t[k - 1][n] >> 8);
  return Val_unit;
}

/* The eight lookups of the four bytes of [x], the first through row
   [r + 3]. */
#define CRC4(x, r)                                                          \
  ((crc_t[(r) + 3][(x) & 0xFF] ^ crc_t[(r) + 2][((x) >> 8) & 0xFF])        \
   ^ (crc_t[(r) + 1][((x) >> 16) & 0xFF] ^ crc_t[(r)][(x) >> 24]))

value sero_crc32_update(value vcrc, value vb, value voff, value vlen)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(vb) + Long_val(voff);
  long len = Long_val(vlen);
  uint32_t c = ~(uint32_t)Long_val(vcrc);
  for (; len >= 16; len -= 16, p += 16) {
    uint32_t w0 = load_le32(p) ^ c, w1 = load_le32(p + 4);
    uint32_t w2 = load_le32(p + 8), w3 = load_le32(p + 12);
    c = (CRC4(w0, 12) ^ CRC4(w1, 8)) ^ (CRC4(w2, 4) ^ CRC4(w3, 0));
  }
  if (len >= 8) {
    uint32_t w0 = load_le32(p) ^ c, w1 = load_le32(p + 4);
    c = CRC4(w0, 4) ^ CRC4(w1, 0);
    len -= 8;
    p += 8;
  }
  if (len >= 4) {
    uint32_t w0 = load_le32(p) ^ c;
    c = CRC4(w0, 0);
    len -= 4;
    p += 4;
  }
  for (; len > 0; len--, p++) c = crc_t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return Val_long(~c);
}

/* {1 Reed-Solomon remainder}

   The remainder of d(x) x^npar by the generator, R_0 .. R_(npar-1)
   with R_0 the coefficient of x^(npar-1), lives in little-endian 64-bit
   lanes: R_i in byte i mod 8 of lane i / 8, pad bytes zero, so the
   lanes stored little-endian are the parity bytes in order.  The table
   rs.ml builds holds, at byte ((m * 256) + u) * 8 * lanes, the lanes of
   u * (x^(npar+m) mod g): eight rows (m = 0 .. 7) for a three-lane code
   (npar 17 to 24, the sector code's 24 among them), one otherwise.

   A byte d steps the remainder through row 0: u = d xor R_0, every
   symbol moves down one place and u * (x^npar mod g) is added.  A
   three-lane code takes eight bytes d_0 .. d_7 at once:

     R' = (x^8 R + sum_j d_j x^(npar+7-j)) mod g
        = (R moved down eight symbols) + sum_j u_j (x^(npar+7-j) mod g)

   with u_j = d_j xor R_j, so one xor of the eight data bytes with lane
   0 gives every u_j, moving down eight symbols is moving down one lane,
   and byte j goes through row 7 - j.  The eight lookups per lane do
   not depend on each other. */

#define MAX_LANES 32

/* One byte step of an [lanes]-lane remainder. */
static inline void rem_byte(const unsigned char *t, int lanes, uint64_t *r,
                            unsigned d)
{
  const unsigned char *e = t + (size_t)((d ^ r[0]) & 0xFF) * (size_t)lanes * 8;
  int l;
  for (l = 0; l < lanes - 1; l++)
    r[l] = ((r[l] >> 8) | (r[l + 1] << 56)) ^ load_le64(e + 8 * l);
  r[lanes - 1] = (r[lanes - 1] >> 8) ^ load_le64(e + 8 * (lanes - 1));
}

/* Lane [l] of row [m]'s entry for byte [u] of a three-lane table. */
#define T3(m, u, l) load_le64(t + ((((size_t)(m) << 8) | (u)) * 24) + 8 * (l))

/* One eight-byte step of a three-lane remainder [a], [b], [c]. */
#define STEP3(w, a, b, c)                                                   \
  do {                                                                      \
    uint64_t u_ = (w) ^ (a);                                                \
    unsigned u0_ = u_ & 0xFF, u1_ = (u_ >> 8) & 0xFF;                       \
    unsigned u2_ = (u_ >> 16) & 0xFF, u3_ = (u_ >> 24) & 0xFF;              \
    unsigned u4_ = (u_ >> 32) & 0xFF, u5_ = (u_ >> 40) & 0xFF;              \
    unsigned u6_ = (u_ >> 48) & 0xFF, u7_ = (unsigned)(u_ >> 56);           \
    (a) = (b) ^ ((T3(7, u0_, 0) ^ T3(6, u1_, 0)) ^ (T3(5, u2_, 0) ^ T3(4, u3_, 0))) \
          ^ ((T3(3, u4_, 0) ^ T3(2, u5_, 0)) ^ (T3(1, u6_, 0) ^ T3(0, u7_, 0))); \
    (b) = (c) ^ ((T3(7, u0_, 1) ^ T3(6, u1_, 1)) ^ (T3(5, u2_, 1) ^ T3(4, u3_, 1))) \
          ^ ((T3(3, u4_, 1) ^ T3(2, u5_, 1)) ^ (T3(1, u6_, 1) ^ T3(0, u7_, 1))); \
    (c) = ((T3(7, u0_, 2) ^ T3(6, u1_, 2)) ^ (T3(5, u2_, 2) ^ T3(4, u3_, 2))) \
          ^ ((T3(3, u4_, 2) ^ T3(2, u5_, 2)) ^ (T3(1, u6_, 2) ^ T3(0, u7_, 2))); \
  } while (0)

/* The remainders of the [n <= 3] slices [src[i], src[i] + len[i]),
   stored as their first [npar] little-endian lane bytes at [dst[i]]. */
static void remainders(const unsigned char *t, long npar, int n,
                       const unsigned char *const src[3], const long len[3],
                       unsigned char *const dst[3])
{
  int lanes = (int)((npar + 7) / 8), i, l;
  uint64_t r[3][MAX_LANES];
  for (i = 0; i < n; i++)
    for (l = 0; l < lanes; l++) r[i][l] = 0;
  if (lanes == 3) {
    /* Each slice's first len mod 8 bytes as one zero-padded step from
       a zero remainder, then the chains side by side. */
    const unsigned char *p[3] = {0, 0, 0};
    long steps[3] = {0, 0, 0}, most = 0, k;
    uint64_t a0 = 0, b0 = 0, c0 = 0, a1 = 0, b1 = 0, c1 = 0;
    uint64_t a2 = 0, b2 = 0, c2 = 0;
    for (i = 0; i < n; i++) {
      long head = len[i] & 7;
      p[i] = src[i] + head;
      steps[i] = len[i] >> 3;
      if (steps[i] > most) most = steps[i];
    }
    if (n > 0 && (len[0] & 7)) STEP3(load_head(src[0], len[0] & 7), a0, b0, c0);
    if (n > 1 && (len[1] & 7)) STEP3(load_head(src[1], len[1] & 7), a1, b1, c1);
    if (n > 2 && (len[2] & 7)) STEP3(load_head(src[2], len[2] & 7), a2, b2, c2);
    for (k = 0; k < most; k++) {
      if (k < steps[0]) STEP3(load_le64(p[0] + 8 * k), a0, b0, c0);
      if (k < steps[1]) STEP3(load_le64(p[1] + 8 * k), a1, b1, c1);
      if (k < steps[2]) STEP3(load_le64(p[2] + 8 * k), a2, b2, c2);
    }
    r[0][0] = a0; r[0][1] = b0; r[0][2] = c0;
    r[1][0] = a1; r[1][1] = b1; r[1][2] = c1;
    r[2][0] = a2; r[2][1] = b2; r[2][2] = c2;
  } else {
    for (i = 0; i < n; i++) {
      long k;
      for (k = 0; k < len[i]; k++) rem_byte(t, lanes, r[i], src[i][k]);
    }
  }
  for (i = 0; i < n; i++) {
    long j;
    for (j = 0; j < npar; j++)
      dst[i][j] = (unsigned char)(r[i][j >> 3] >> (8 * (j & 7)));
  }
}

/* [sero_rs_parity table npar buf n o0 l0 o1 l1 o2 l2] writes the parity
   of each of the first [n] slices [o_i, o_i + l_i) of [buf] right after
   it. */
value sero_rs_parity(value table, value vnpar, value vbuf, value vn,
                     value vo0, value vl0, value vo1, value vl1, value vo2,
                     value vl2)
{
  unsigned char *b = Bytes_val(vbuf);
  long o[3] = {Long_val(vo0), Long_val(vo1), Long_val(vo2)};
  long len[3] = {Long_val(vl0), Long_val(vl1), Long_val(vl2)};
  const unsigned char *src[3] = {0, 0, 0};
  unsigned char *dst[3] = {0, 0, 0};
  int n = (int)Long_val(vn), i;
  for (i = 0; i < n; i++) {
    src[i] = b + o[i];
    dst[i] = b + o[i] + len[i];
  }
  remainders((const unsigned char *)String_val(table), Long_val(vnpar), n, src,
             len, dst);
  return Val_unit;
}

value sero_rs_parity_byte(value *argv, int argn)
{
  (void)argn;
  return sero_rs_parity(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8], argv[9]);
}

/* [sero_rs_remainder table npar src off len dst] writes the [npar]
   remainder bytes of [src[off, off + len)] at the start of [dst]. */
value sero_rs_remainder(value table, value vnpar, value vsrc, value voff,
                        value vlen, value vdst)
{
  const unsigned char *src[3] = {0, 0, 0};
  unsigned char *dst[3] = {0, 0, 0};
  long len[3] = {Long_val(vlen), 0, 0};
  src[0] = (const unsigned char *)Bytes_val(vsrc) + Long_val(voff);
  dst[0] = Bytes_val(vdst);
  remainders((const unsigned char *)String_val(table), Long_val(vnpar), 1, src,
             len, dst);
  return Val_unit;
}

value sero_rs_remainder_byte(value *argv, int argn)
{
  (void)argn;
  return sero_rs_remainder(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5]);
}

/* {1 The clean screen}

   S_i = r(alpha^i) for i = 0 .. 3.  S0 (alpha^0 = 1) is the xor of the
   bytes.  S1 - S3 travel packed one byte each in a word, S_i in bits
   8(i-1) .. 8i-1.  Eight bytes b_0 .. b_7 advance Horner's rule in one
   dependent step,

     S_i <- S_i alpha^(8i) + sum_k b_k alpha^((7-k)i),

   where screen_byte[k][b] holds byte b's three terms
   b alpha^k | b alpha^(2k) << 8 | b alpha^(3k) << 16 and
   screen_shift[i-1][s] holds s alpha^(8i) already at lane i.  GF(256)
   is Gf256's: the polynomial 0x11D, alpha = 2. */

static uint32_t screen_byte[8][256], screen_shift[3][256];

value sero_rs_init(value unit)
{
  unsigned char gexp[255];
  int glog[256], x = 1, i, k, b;
  (void)unit;
  for (i = 0; i < 255; i++) {
    gexp[i] = (unsigned char)x;
    glog[x] = i;
    x <<= 1;
    if (x & 0x100) x ^= 0x11D;
  }
#define GMUL(a, e) ((a) == 0 ? 0u : (uint32_t)gexp[(glog[(a)] + (e)) % 255])
  for (k = 0; k < 8; k++)
    for (b = 0; b < 256; b++)
      screen_byte[k][b] =
          GMUL(b, k) | (GMUL(b, 2 * k) << 8) | (GMUL(b, 3 * k) << 16);
  for (i = 1; i <= 3; i++)
    for (b = 0; b < 256; b++)
      screen_shift[i - 1][b] = GMUL(b, 8 * i) << (8 * (i - 1));
#undef GMUL
  return Val_unit;
}

/* One eight-byte step of the packed S1 - S3 [s] and of [s0], which
   gathers the xor of the words' two halves. */
#define SCREEN(w, s, s0)                                                    \
  do {                                                                      \
    uint32_t lo_ = (uint32_t)(w), hi_ = (uint32_t)((w) >> 32);             \
    uint32_t x_ = ((screen_byte[7][lo_ & 0xFF] ^ screen_byte[6][(lo_ >> 8) & 0xFF]) \
                   ^ (screen_byte[5][(lo_ >> 16) & 0xFF] ^ screen_byte[4][lo_ >> 24])) \
                  ^ ((screen_byte[3][hi_ & 0xFF] ^ screen_byte[2][(hi_ >> 8) & 0xFF]) \
                     ^ (screen_byte[1][(hi_ >> 16) & 0xFF] ^ screen_byte[0][hi_ >> 24])); \
    (s0) ^= lo_ ^ hi_;                                                      \
    (s) = (screen_shift[0][(s) & 0xFF] ^ screen_shift[1][((s) >> 8) & 0xFF]) \
          ^ (screen_shift[2][(s) >> 16] ^ x_);                              \
  } while (0)

/* [sero_rs_screen buf n o0 l0 o1 l1 o2 l2] is true when S0 - S3 of each
   of the first [n] words [o_i, o_i + l_i) of [buf] are all zero. */
value sero_rs_screen(value vbuf, value vn, value vo0, value vl0, value vo1,
                     value vl1, value vo2, value vl2)
{
  const unsigned char *b = (const unsigned char *)Bytes_val(vbuf);
  long o[3] = {Long_val(vo0), Long_val(vo1), Long_val(vo2)};
  long len[3] = {Long_val(vl0), Long_val(vl1), Long_val(vl2)};
  const unsigned char *p[3] = {0, 0, 0};
  long steps[3] = {0, 0, 0}, most = 0, k;
  uint32_t s_0 = 0, s_1 = 0, s_2 = 0, x0 = 0, x1 = 0, x2 = 0, z;
  int n = (int)Long_val(vn), i;
  for (i = 0; i < n; i++) {
    long head = len[i] & 7;
    p[i] = b + o[i];
    if (head) {
      uint64_t w = load_head(p[i], head);
      if (i == 0) SCREEN(w, s_0, x0);
      else if (i == 1) SCREEN(w, s_1, x1);
      else SCREEN(w, s_2, x2);
    }
    p[i] += head;
    steps[i] = len[i] >> 3;
    if (steps[i] > most) most = steps[i];
  }
  for (k = 0; k < most; k++) {
    if (k < steps[0]) SCREEN(load_le64(p[0] + 8 * k), s_0, x0);
    if (k < steps[1]) SCREEN(load_le64(p[1] + 8 * k), s_1, x1);
    if (k < steps[2]) SCREEN(load_le64(p[2] + 8 * k), s_2, x2);
  }
  /* Each S0 folds its four byte lanes. */
  z = 0;
  x0 ^= x0 >> 16; z |= (x0 ^ (x0 >> 8)) & 0xFF;
  x1 ^= x1 >> 16; z |= (x1 ^ (x1 >> 8)) & 0xFF;
  x2 ^= x2 >> 16; z |= (x2 ^ (x2 >> 8)) & 0xFF;
  return Val_bool((z | s_0 | s_1 | s_2) == 0);
}

value sero_rs_screen_byte(value *argv, int argn)
{
  (void)argn;
  return sero_rs_screen(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7]);
}
