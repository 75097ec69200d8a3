#include "perfbench/src/options.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <set>

namespace perfbench {

namespace {

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

bool ParsePositive(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() || !std::isfinite(value) ||
      value <= 0.0) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

const char* UsageText() {
  return "usage: dpack_perfbench --workload <deep_queue|grant_churn|service_socket>\n"
         "                       [--seed <n>] [--seconds <n>] [--trace <0|1>]\n"
         "                       [--scale <(0,1]>]\n";
}

bool ParseOptions(int argc, char** argv, Options* out, std::string* error) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    size_t eq = flag.find('=');
    if (flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "flag " + flag + " needs a value";
      return false;
    }
    if (!seen.insert(flag).second) {
      *error = "flag " + flag + " given twice";
      return false;
    }
    bool ok = true;
    if (flag == "--workload") {
      out->workload = value;
      ok = !value.empty();
    } else if (flag == "--seed") {
      ok = ParseUnsigned(value, &out->seed);
    } else if (flag == "--seconds") {
      ok = ParsePositive(value, &out->seconds);
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      out->trace = value == "1";
    } else if (flag == "--scale") {
      ok = ParsePositive(value, &out->scale) && out->scale <= 1.0;
    } else {
      *error = "unknown flag: " + flag;
      return false;
    }
    if (!ok) {
      *error = "bad value for " + flag + ": '" + value + "'";
      return false;
    }
  }
  if (out->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

}  // namespace perfbench
