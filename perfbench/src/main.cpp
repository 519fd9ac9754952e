// whisk's benchmark. One run measures one workload for a fixed time and
// prints its metrics as the last line of stdout:
//
//   whisk_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The seed only picks the grid's seed axis; the library receives the
// generated grid. See perfbench/METRICS.md for what each metric means.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* argv0, const char* problem) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               problem, argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (args.seconds <= 0.0) usage(argv[0], "--seconds must be positive");
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") usage(argv[0], "--trace takes 0 or 1");
      args.trace = v == "1";
    } else {
      usage(argv[0], "unknown flag");
    }
    if (end != nullptr && *end != '\0') usage(argv[0], "malformed number");
  }
  if (!have_workload) usage(argv[0], "--workload is required");
  (void)perfbench::make_workload(args.workload, 0);  // exits when unknown
  return args.trace ? perfbench::run_traced(args)
                    : perfbench::run_end_to_end(args);
}
