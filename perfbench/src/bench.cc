#include "bench.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "common/json.hh"
#include "common/random.hh"

namespace perfbench
{

const rmt::SimMode machineModes[5] = {
    rmt::SimMode::Base, rmt::SimMode::Base2, rmt::SimMode::Srt,
    rmt::SimMode::Lockstep, rmt::SimMode::Crt};

const char *const modeNames[5] = {"base", "base2", "srt", "lockstep",
                                  "crt"};

int
modeIndex(rmt::SimMode mode)
{
    for (int m = 0; m < 5; ++m) {
        if (machineModes[m] == mode)
            return m;
    }
    return 0;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

HostProbe::HostProbe() : keys(std::size_t{1} << 15)
{
    rmt::Random rng(0x9e3779b97f4a7c15ull);
    for (std::uint32_t &k : keys)
        k = static_cast<std::uint32_t>(rng.next());
    // The first pass pays for faulting in the heap it allocates; keep
    // that out of the readings.
    sample();
    samples.clear();
}

std::int64_t
HostProbe::sample()
{
    const std::int64_t t0 = nowNs();
    // Branchy, allocation-heavy container work: the same kind of user
    // time the simulator spends, so it slows down when the simulator
    // does.
    std::vector<std::uint32_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::unordered_map<std::uint32_t, std::uint32_t> table;
    table.reserve(keys.size());
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < 2 * keys.size(); ++i) {
        std::uint32_t &slot = table[keys[i % keys.size()] >> 16 ^
                                    static_cast<std::uint32_t>(i)];
        slot += acc;
        acc += slot + sorted[i % sorted.size()];
    }
    // Fresh pages: the page-fault work that building a Simulation's
    // memory images, forking a trial and growing the store all pay.
    constexpr std::size_t pageBytes = 4096, pages = 256;
    void *region = ::mmap(nullptr, pageBytes * pages, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (region != MAP_FAILED) {
        auto *bytes = static_cast<volatile char *>(region);
        for (std::size_t page = 0; page < pages; ++page)
            bytes[page * pageBytes] = static_cast<char>(acc + page);
        ::munmap(region, pageBytes * pages);
    }
    const std::int64_t t1 = nowNs();
    // Keep the work observable so it cannot be optimised away.
    if (acc == 0x9e3779b9u && table.size() == 1)
        std::abort();
    samples.emplace_back(t1, static_cast<double>(t1 - t0) * 1e-6);
    return t1 - t0;
}

std::int64_t
HostProbe::tick()
{
    if (!samples.empty() && nowNs() - samples.back().first < 200'000'000)
        return 0;
    return sample();
}

double
HostProbe::factorAt(std::int64_t t_ns) const
{
    if (samples.empty())
        return 1;
    std::vector<double> near;
    for (const auto &[t, ns] : samples) {
        if (t >= t_ns - 1'000'000'000 && t <= t_ns + 1'000'000'000)
            near.push_back(ns);
    }
    if (near.empty()) {
        // Fall back to the closest sample.
        auto best = samples.front();
        for (const auto &s : samples) {
            if (std::llabs(s.first - t_ns) < std::llabs(best.first - t_ns))
                best = s;
        }
        near.push_back(best.second);
    }
    return referenceMs / median(near);
}

double
HostProbe::medianMs() const
{
    std::vector<double> ms;
    for (const auto &s : samples)
        ms.push_back(s.second);
    return median(ms);
}

void
RateTable::add(int mode, const std::string &config, double committed,
               double seconds, std::int64_t end_ns)
{
    Cell &c = cells[{mode, config}];
    c.committed.push_back(committed);
    c.seconds.push_back(seconds * probe->factorAt(end_ns));
}

double
RateTable::kips(int mode) const
{
    double committed = 0, seconds = 0;
    for (const auto &[key, c] : cells) {
        if (key.first != mode)
            continue;
        committed += median(c.committed);
        seconds += median(c.seconds);
    }
    return seconds > 0 ? committed / seconds * 1e-3 : 0;
}

double
RateTable::opsPerSecond() const
{
    double ops = 0, seconds = 0;
    for (const auto &[key, c] : cells) {
        ops += static_cast<double>(c.seconds.size());
        seconds += static_cast<double>(c.seconds.size()) * median(c.seconds);
    }
    return seconds > 0 ? ops / seconds : 0;
}

std::vector<double>
RateTable::typicalMs() const
{
    std::vector<double> ms;
    for (const auto &[key, c] : cells)
        ms.insert(ms.end(), c.seconds.size(), median(c.seconds) * 1e3);
    return ms;
}

std::vector<double>
RateTable::allMs() const
{
    std::vector<double> ms;
    for (const auto &[key, c] : cells) {
        for (double s : c.seconds)
            ms.push_back(s * 1e3);
    }
    return ms;
}

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    // Keep the first few distinct failures; one broken invariant
    // usually fails on every job.
    if (errors.size() < 8 &&
        std::find(errors.begin(), errors.end(), what) == errors.end())
        errors.push_back(what);
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, std::uint64_t group)
    : tracer(tracer), t0(nowNs())
{
    if (!tracer.enabled)
        return;
    Span s;
    s.name = name;
    s.group = group;
    s.parent = tracer.open.empty() ? -1 : tracer.open.back();
    s.t0 = t0;
    index = static_cast<int>(tracer._spans.size());
    tracer._spans.push_back(std::move(s));
    tracer.open.push_back(index);
}

std::int64_t
Tracer::Scope::close()
{
    if (length >= 0)
        return length;
    const std::int64_t t1 = nowNs();
    length = t1 - t0;
    if (index >= 0) {
        tracer._spans[static_cast<std::size_t>(index)].t1 = t1;
        // Scopes close in LIFO order on the recording thread.
        if (!tracer.open.empty() && tracer.open.back() == index)
            tracer.open.pop_back();
    }
    return length;
}

void
Tracer::add(const std::string &name, std::uint64_t group, std::int64_t t0,
            std::int64_t t1, int track)
{
    if (!enabled)
        return;
    Span s;
    s.name = name;
    s.group = group;
    s.parent = open.empty() ? -1 : open.back();
    s.track = track;
    s.t0 = t0;
    s.t1 = std::max(t0, t1);
    _spans.push_back(std::move(s));
}

std::map<std::string, std::pair<double, std::uint64_t>>
Tracer::selfTimes() const
{
    std::vector<double> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        self[i] = static_cast<double>(_spans[i].t1 - _spans[i].t0);
    for (const Span &s : _spans) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                static_cast<double>(s.t1 - s.t0);
    }
    std::map<std::string, std::pair<double, std::uint64_t>> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        auto &slot = out[_spans[i].name];
        slot.first += std::max(0.0, self[i]);
        ++slot.second;
    }
    return out;
}

std::string
Tracer::chromeJson() const
{
    std::int64_t origin = 0;
    for (const Span &s : _spans)
        origin = origin ? std::min(origin, s.t0) : s.t0;
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\"perfbench main\"}},\n"
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
          "\"args\":{\"name\":\"forked trial\"}}";
    for (const Span &s : _spans) {
        const std::string layer = s.name.substr(0, s.name.find('.'));
        os << ",\n{\"name\":\"" << rmt::jsonEscape(s.name)
           << "\",\"cat\":\"" << rmt::jsonEscape(layer)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track + 1
           << ",\"ts\":" << rmt::jsonNum((s.t0 - origin) * 1e-3)
           << ",\"dur\":" << rmt::jsonNum((s.t1 - s.t0) * 1e-3)
           << ",\"args\":{\"id\":" << s.group << ",\"parent\":\""
           << (s.parent >= 0
                   ? rmt::jsonEscape(
                         _spans[static_cast<std::size_t>(s.parent)].name)
                   : "")
           << "\"}}";
    }
    os << "\n]}\n";
    return os.str();
}

std::string
Tracer::selfTimeTable() const
{
    const auto by_name = selfTimes();
    std::map<std::string, std::pair<double, std::uint64_t>> by_layer;
    double total = 0;
    for (const auto &[name, slot] : by_name) {
        auto &l = by_layer[name.substr(0, name.find('.'))];
        l.first += slot.first;
        l.second += slot.second;
        total += slot.first;
    }
    std::ostringstream os;
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %12s %7s %10s\n", "layer / span",
                  "self_ms", "share", "spans");
    os << line;
    for (const auto &[layer, l] : by_layer) {
        std::snprintf(line, sizeof(line), "%-28s %12.3f %6.2f%% %10llu\n",
                      layer.c_str(), l.first * 1e-6,
                      total > 0 ? 100.0 * l.first / total : 0.0,
                      static_cast<unsigned long long>(l.second));
        os << line;
        for (const auto &[name, slot] : by_name) {
            if (name.compare(0, layer.size() + 1, layer + ".") != 0)
                continue;
            std::snprintf(line, sizeof(line),
                          "  %-26s %12.3f %6.2f%% %10llu\n", name.c_str(),
                          slot.first * 1e-6,
                          total > 0 ? 100.0 * slot.first / total : 0.0,
                          static_cast<unsigned long long>(slot.second));
            os << line;
        }
    }
    return os.str();
}

} // namespace perfbench
