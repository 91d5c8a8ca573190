/* Monotonic nanosecond clock for span and round timing. */

#include <time.h>
#include <caml/mlvalues.h>

value serobench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

