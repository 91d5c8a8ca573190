/* The clean-word loops of Bitops.mrb_run's and mwb_run's packed path.

   A segment chunk's state bytes hold four dots each, dot j of a byte in
   bits 2j (its logical bit: Up = 1) and 2j + 1 (set when heated).  Two
   state bytes (eight dots) make one image byte, dot 0 in its top bit.
   The loops take eight state bytes (32 dots, four image bytes) per step
   with one little-endian load, and finish a chunk's last fewer than
   eight pair by pair.  A read folds each pair's 16 bits onto 8,
   [p | p >> 7] (dots 0-3 on the even bits, 4-7 on the odd ones, the
   heated bits of a clean pair being zero), and looks the image byte up
   in [fold_image]; a write looks each image byte's two state bytes up
   in [image_states].  [sero_word_init], which bitops.ml calls at module
   initialisation, builds both tables.

   [sero_mrb_clean] stops at the first word (or, past the chunk's last
   whole word, the first pair) with a heated field and returns its pair
   index: a heated dot reads as a coin flip from the medium PRNG, drawn
   in OCaml in address order, after which the caller resumes here from
   the next word.  [sero_mwb_words] writes every word, keeping each
   heated field as it is: a write has no perpendicular axis to act on.
   The OCaml caller checks the run and the buffer's bit range; nothing
   here allocates or raises. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <stdint.h>

/* The heated bit of every dot of a word. */
#define HEATED 0xAAAAAAAAAAAAAAAAULL

static inline uint64_t load_le64(const unsigned char *p)
{
  return (uint64_t)p[0] | ((uint64_t)p[1] << 8) | ((uint64_t)p[2] << 16)
         | ((uint64_t)p[3] << 24) | ((uint64_t)p[4] << 32)
         | ((uint64_t)p[5] << 40) | ((uint64_t)p[6] << 48)
         | ((uint64_t)p[7] << 56);
}

static inline void store_le32(unsigned char *p, uint64_t v)
{
  p[0] = (unsigned char)v;
  p[1] = (unsigned char)(v >> 8);
  p[2] = (unsigned char)(v >> 16);
  p[3] = (unsigned char)(v >> 24);
}

static inline void store_le64(unsigned char *p, uint64_t v)
{
  store_le32(p, v);
  store_le32(p + 4, v >> 32);
}

static unsigned char fold_image[256];
static uint16_t image_states[256];

value sero_word_init(value unit)
{
  int v, d;
  (void)unit;
  for (v = 0; v < 256; v++) {
    unsigned f = 0, e = 0;
    for (d = 0; d < 8; d++) {
      /* Dot d: bit 2d (d < 4) or 2(d-4)+1 of a folded pair; bit 7-d of
         an image byte; bit 2d of a pair of state bytes. */
      int fold = d < 4 ? 2 * d : 2 * (d - 4) + 1;
      if (v & (1 << fold)) f |= 0x80u >> d;
      if (v & (0x80 >> d)) e |= 1u << (2 * d);
    }
    fold_image[v] = (unsigned char)f;
    image_states[v] = (uint16_t)e;
  }
  return Val_unit;
}

/* [sero_mrb_clean states first dst dpos n] reads the chunk's pairs
   0 .. n-1 (pair p: state bytes first + 2p and first + 2p + 1 of
   [states]) into image bytes dpos + p of [dst], and returns the index
   of the first word or pair it met with a heated field, or [n]. */
value sero_mrb_clean(value states, value vfirst, value vdst, value vdpos,
                     value vn)
{
  const unsigned char *s =
      (const unsigned char *)Caml_ba_data_val(states) + Long_val(vfirst);
  unsigned char *d = Bytes_val(vdst) + Long_val(vdpos);
  long n = Long_val(vn), p = 0;
  for (; p + 4 <= n; p += 4) {
    uint64_t w = load_le64(s + 2 * p), f;
    if (w & HEATED) return Val_long(p);
    f = w | (w >> 7);
    store_le32(d + p, (uint32_t)fold_image[f & 0xFF]
                          | ((uint32_t)fold_image[(f >> 16) & 0xFF] << 8)
                          | ((uint32_t)fold_image[(f >> 32) & 0xFF] << 16)
                          | ((uint32_t)fold_image[(f >> 48) & 0xFF] << 24));
  }
  for (; p < n; p++) {
    unsigned w = s[2 * p] | ((unsigned)s[2 * p + 1] << 8);
    if (w & 0xAAAA) return Val_long(p);
    d[p] = fold_image[(w | (w >> 7)) & 0xFF];
  }
  return Val_long(n);
}

/* [sero_mwb_words states first src spos n] writes image bytes
   spos + p of [src] over the chunk's pairs p = 0 .. n-1, leaving every
   heated field as it is. */
value sero_mwb_words(value states, value vfirst, value vsrc, value vspos,
                     value vn)
{
  unsigned char *s = (unsigned char *)Caml_ba_data_val(states) + Long_val(vfirst);
  const unsigned char *src = (const unsigned char *)Bytes_val(vsrc) + Long_val(vspos);
  long n = Long_val(vn), p = 0;
  for (; p + 4 <= n; p += 4) {
    uint64_t w = load_le64(s + 2 * p);
    uint64_t keep = (w & HEATED) | ((w & HEATED) >> 1);
    uint64_t x = (uint64_t)image_states[src[p]]
                 | ((uint64_t)image_states[src[p + 1]] << 16)
                 | ((uint64_t)image_states[src[p + 2]] << 32)
                 | ((uint64_t)image_states[src[p + 3]] << 48);
    store_le64(s + 2 * p, (w & keep) | (x & ~keep));
  }
  for (; p < n; p++) {
    unsigned w = s[2 * p] | ((unsigned)s[2 * p + 1] << 8);
    unsigned keep = (w & 0xAAAA) | ((w & 0xAAAA) >> 1);
    w = (w & keep) | (image_states[src[p]] & ~keep);
    s[2 * p] = (unsigned char)w;
    s[2 * p + 1] = (unsigned char)(w >> 8);
  }
  return Val_unit;
}
