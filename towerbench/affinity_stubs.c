/* Pin the calling process to the CPU it is running on; see Util.in_child. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#endif

/* Returns the CPU pinned to, or -1 where pinning is unavailable. */
value towerbench_pin_to_current_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  int cpu = sched_getcpu();
  cpu_set_t set;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
#else
  return Val_int(-1);
#endif
}
