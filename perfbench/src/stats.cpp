// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
#include "stats.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * frac;
}

std::vector<double> SpanDurationsNs(const ermia::trace::TraceDump& dump,
                                    ermia::trace::Event begin,
                                    ermia::trace::Event end, uint64_t lo_tsc,
                                    uint64_t hi_tsc) {
  // Events are merged across threads in timestamp order; pair per thread.
  std::map<uint32_t, uint64_t> open;  // thread -> begin tsc
  std::vector<double> out;
  for (const auto& e : dump.events) {
    if (e.event == begin) {
      open[e.thread] = e.tsc;
    } else if (e.event == end) {
      auto it = open.find(e.thread);
      if (it == open.end()) continue;
      if (it->second >= lo_tsc && e.tsc <= hi_tsc && e.tsc >= it->second) {
        out.push_back(static_cast<double>(e.tsc - it->second) /
                      dump.cycles_per_ns);
      }
      open.erase(it);
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> ThreadCpuSeconds() {
  std::vector<std::pair<std::string, double>> out;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* ent = readdir(dir)) {
    if (ent->d_name[0] == '.') continue;
    const std::string base = std::string("/proc/self/task/") + ent->d_name;
    std::ifstream comm_in(base + "/comm");
    std::string comm;
    std::getline(comm_in, comm);
    std::ifstream stat_in(base + "/stat");
    std::string stat((std::istreambuf_iterator<char>(stat_in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command: state is field 3, utime and
    // stime are fields 14 and 15.
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int f = 3; f <= 15 && rest >> field; ++f) {
      if (f == 14) utime = std::stoull(field);
      if (f == 15) stime = std::stoull(field);
    }
    out.emplace_back(comm + "/" + ent->d_name,
                     static_cast<double>(utime + stime) / ticks);
  }
  closedir(dir);
  return out;
}

double ProcessCpuSeconds() {
  rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
