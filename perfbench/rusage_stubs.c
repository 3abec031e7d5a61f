/* Peak resident set size through getrusage(2), in kilobytes (Linux
   reports ru_maxrss in KiB).  [who] = 0 for the calling process, 1 for
   its terminated and waited-for children (the largest of them). */
#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_maxrss_kb(value who)
{
  struct rusage ru;
  int w = Int_val(who) == 0 ? RUSAGE_SELF : RUSAGE_CHILDREN;
  if (getrusage(w, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
