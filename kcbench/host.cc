#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <algorithm>
#include <cstdlib>
#include <string>

#include "kcbench.h"

namespace kcbench {

namespace {

// Value of a "Key:   1234 kB" line of /proc/self/status, in kB.
double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::stod(line.substr(key_len + 1));
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
  return "unknown";
}

// JSON string body: quotes and backslashes escaped, control bytes dropped.
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// CPUs this process may run on, as nproc counts them.
int Nproc() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

double LoadAverage1() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  in >> load;
  return load;
}

void PrintHostStamp(double load_before, double load_after) {
#ifdef __AVX2__
  const bool avx2 = true;
#else
  const bool avx2 = false;
#endif
  std::printf(
      "{\"host\": {\"nproc\": %d, \"cpu_model\": \"%s\", \"build_type\": "
      "\"%s\", \"avx2\": %s, \"load1_before\": %.2f, \"load1_after\": "
      "%.2f}}\n",
      Nproc(), JsonEscape(CpuModel()).c_str(),
      KCBENCH_BUILD_TYPE, avx2 ? "true" : "false", load_before, load_after);
}

double PeakRssMb() { return StatusKb("VmHWM") / 1024.0; }

double CurrentRssKb() { return StatusKb("VmRSS"); }

void ResetPeakRss() {
  ::malloc_trim(0);
  // "5" resets VmHWM to VmRSS (proc(5), /proc/pid/clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

// Thread ids of this process, ascending.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] != '.') tids.push_back(std::atoi(e->d_name));
    }
    ::closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

}  // namespace

CpuRotation::CpuRotation(double period_s, bool one_cpu)
    : period_s_(period_s), one_cpu_(one_cpu) {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2 || next_s_ == 0.0) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus_) CPU_SET(c, &all);
  for (pid_t tid : ThreadIds()) ::sched_setaffinity(tid, sizeof(all), &all);
}

bool CpuRotation::MaybeRotate() {
  if (cpus_.size() < 2) return false;
  double now = NowSeconds();
  if (now < next_s_) return false;
  next_s_ = now + period_s_;
  std::vector<pid_t> tids = ThreadIds();
  for (size_t k = 0; k < tids.size(); ++k) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(offset_ + (one_cpu_ ? 0 : k)) % cpus_.size()], &one);
    ::sched_setaffinity(tids[k], sizeof(one), &one);
  }
  ++offset_;
  return true;
}

void Result::Fail(const std::string& why) {
  std::fprintf(stderr, "kcbench: check failed: %s\n", why.c_str());
  correct = false;
}

}  // namespace kcbench
