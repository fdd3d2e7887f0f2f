// json_check <file>...: exits 0 iff every file is exactly one valid JSON
// value. CTest and CI run it over the BENCH_*.json artifacts so a
// malformed token (NaN, Infinity, truncation) fails the build instead of
// the downstream consumer.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/json_value.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: json_check <file>...\n");
    return 2;
  }
  int bad = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream file(argv[i]);
    if (!file) {
      std::fprintf(stderr, "json_check: cannot read %s\n", argv[i]);
      ++bad;
      continue;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    const std::string text = contents.str();
    try {
      (void)crnkit::util::JsonValue::parse(text);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "json_check: %s is not valid JSON: %s\n", argv[i],
                   e.what());
      ++bad;
      continue;
    }
    std::printf("json_check: %s OK (%zu bytes)\n", argv[i], text.size());
  }
  return bad == 0 ? 0 : 1;
}
