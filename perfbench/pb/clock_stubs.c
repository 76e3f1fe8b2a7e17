/* Monotonic nanosecond clock for latency samples: Unix.gettimeofday has
   microsecond resolution, too coarse for sub-microsecond layer spans. */
#include <time.h>
#include <caml/mlvalues.h>

value pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
