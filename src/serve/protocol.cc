#include "serve/protocol.hh"

#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "avf/stratum.hh"
#include "common/fingerprint.hh"
#include "rmt/fault_injector.hh"
#include "sim/simulator.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace rmt
{
namespace serve
{

namespace
{

/** Append @p v as a JSON string of decimal digits. */
void
appendQuotedUint(std::string &out, std::uint64_t v)
{
    out += '"';
    appendUint(out, v);
    out += '"';
}

void
appendJobJson(std::string &out, const JobSpec &spec)
{
    // 64-bit fields that can exceed 2^53 (per-trial seeds are full
    // 64-bit hashes) travel as strings: a JSON number goes through a
    // double on the far side and would silently round.
    out += "{\"id\":";
    appendUint(out, spec.id);
    out += ",\"label\":";
    appendJsonString(out, spec.label);
    out += ",\"seed\":";
    appendQuotedUint(out, spec.seed);
    out += ",\"workloads\":[";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        if (i)
            out += ',';
        appendJsonString(out, spec.workloads[i]);
    }
    out += "],\"options\":";
    appendOptionsCanonicalJson(out, spec.options);
    out += ",\"stats\":";
    out += spec.options.collect_stats_json ? '1' : '0';
    if (!spec.faults.empty()) {
        out += ",\"faults\":[";
        for (std::size_t i = 0; i < spec.faults.size(); ++i) {
            const FaultRecord &f = spec.faults[i];
            if (i)
                out += ',';
            out += "{\"kind\":\"";
            out += faultKindName(f.kind);
            out += "\",\"when\":";
            appendQuotedUint(out, f.when);
            out += ",\"core\":";
            appendUint(out, f.core);
            out += ",\"tid\":";
            appendUint(out, f.tid);
            out += ",\"reg\":";
            appendUint(out, f.reg);
            out += ",\"bit\":";
            appendUint(out, f.bit);
            out += ",\"fu\":";
            appendUint(out, f.fuIndex);
            out += ",\"mask\":";
            appendQuotedUint(out, f.mask);
            out += ",\"pair\":";
            appendUint(out, f.pairLogical);
            out += '}';
        }
        out += ']';
    }
    out += '}';
}

} // namespace

std::string
jobJson(const JobSpec &spec)
{
    std::string out;
    out.reserve(canonicalOptionsReserve + 128);
    appendJobJson(out, spec);
    return out;
}

std::string
submitJson(const Campaign &campaign, bool include_timing)
{
    std::string out;
    out.reserve(128 + campaign.jobs.size() *
                          (canonicalOptionsReserve + 128));
    out += "{\"type\":\"submit\",\"name\":";
    appendJsonString(out, campaign.name);
    out += ",\"seed\":";
    appendQuotedUint(out, campaign.seed);
    out += ",\"timing\":";
    out += include_timing ? "true" : "false";
    out += ",\"jobs\":[";
    for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
        if (i)
            out += ',';
        appendJobJson(out, campaign.jobs[i]);
    }
    out += "]}";
    return out;
}

namespace
{

std::uint64_t
u64Member(const JsonValue &obj, const char *key)
{
    // Full-width u64 fields arrive as strings (see jobJson); small
    // ones as numbers.  Accept both everywhere.
    const JsonValue *v = obj.find(key);
    if (v && v->isString()) {
        try {
            return std::stoull(v->str());
        } catch (const std::exception &) {
            throw std::invalid_argument(
                std::string("serve: member '") + key +
                "' is not a u64: '" + v->str() + "'");
        }
    }
    if (!v || !v->isNumber())
        throw std::invalid_argument(
            std::string("serve: missing numeric member '") + key + "'");
    return static_cast<std::uint64_t>(v->number());
}

bool
boolMember(const JsonValue &obj, const char *key)
{
    return u64Member(obj, key) != 0;
}

std::string
strMember(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    if (!v || !v->isString())
        throw std::invalid_argument(
            std::string("serve: missing string member '") + key + "'");
    return v->str();
}

TrailingFetchMode
parseFrontend(const std::string &name)
{
    if (name == "lpq")
        return TrailingFetchMode::LinePredictionQueue;
    if (name == "boq")
        return TrailingFetchMode::BranchOutcomeQueue;
    if (name == "sharedlp")
        return TrailingFetchMode::SharedLinePredictor;
    throw std::invalid_argument("serve: unknown frontend '" + name +
                                "'");
}

} // namespace

SimOptions
parseCanonicalOptions(const JsonValue &obj)
{
    if (!obj.isObject())
        throw std::invalid_argument("serve: options is not an object");
    SimOptions o;
    o.mode = parseMode(strMember(obj, "mode"));
    o.warmup_insts = u64Member(obj, "warmup_insts");
    o.measure_insts = u64Member(obj, "measure_insts");
    o.checker_penalty =
        static_cast<unsigned>(u64Member(obj, "checker_penalty"));
    o.per_thread_store_queues = boolMember(obj, "ptsq");
    o.store_comparison = boolMember(obj, "store_comparison");
    o.preferential_space_redundancy = boolMember(obj, "psr");
    o.trailing_fetch = parseFrontend(strMember(obj, "frontend"));
    o.slack_fetch = static_cast<unsigned>(u64Member(obj, "slack"));
    o.lvq_ecc = boolMember(obj, "lvq_ecc");
    o.lpq_ecc = boolMember(obj, "lpq_ecc");
    o.boq_ecc = boolMember(obj, "boq_ecc");
    o.merge_buffer_ecc = boolMember(obj, "merge_ecc");
    o.hang_cycles = u64Member(obj, "hang");
    o.cpu.store_queue_entries =
        static_cast<unsigned>(u64Member(obj, "storeq"));
    o.cpu.lvq_entries = static_cast<unsigned>(u64Member(obj, "lvq"));
    o.cpu.lpq_entries = static_cast<unsigned>(u64Member(obj, "lpq"));
    o.cpu.rob_entries = static_cast<unsigned>(u64Member(obj, "rob"));
    o.cpu.iq_entries = static_cast<unsigned>(u64Member(obj, "iq"));
    o.recovery = boolMember(obj, "recovery");
    o.snapshot_every = u64Member(obj, "snapshot_every");
    return o;
}

namespace
{

/** FNV-1a-64 over an options object's members as parsed: each key,
 *  each value's kind, and its string bytes or its number's bits. */
std::uint64_t
membersHash(const JsonValue &obj)
{
    std::uint64_t h = fnv1a64Seed;
    for (const auto &[key, value] : obj.members()) {
        fnv1a64Field(h, key);
        const auto kind = static_cast<std::uint8_t>(value.kind());
        h = fnv1a64(&kind, 1, h);
        if (value.isString()) {
            fnv1a64Field(h, value.str());
        } else {
            const double v = value.number();
            h = fnv1a64(&v, sizeof(v), h);
        }
    }
    return h;
}

/** Same keys in the same order, same kinds, same strings, and numbers
 *  equal bit for bit (so -0 never matches 0).  Any other kind of
 *  member compares unequal: an object holding one never passed the
 *  round-trip check, so it can never be in the memo anyway. */
bool
sameMembers(const JsonValue &a, const JsonValue &b)
{
    const auto &ma = a.members();
    const auto &mb = b.members();
    if (ma.size() != mb.size())
        return false;
    for (std::size_t i = 0; i < ma.size(); ++i) {
        const JsonValue &va = ma[i].second;
        const JsonValue &vb = mb[i].second;
        if (ma[i].first != mb[i].first || va.kind() != vb.kind())
            return false;
        if (va.isString()) {
            if (va.str() != vb.str())
                return false;
        } else if (va.isNumber()) {
            const double x = va.number();
            const double y = vb.number();
            if (std::memcmp(&x, &y, sizeof(x)) != 0)
                return false;
        } else {
            return false;
        }
    }
    return true;
}

/**
 * The options objects one parseSubmit call has already verified.  A
 * sweep repeats a handful of objects across hundreds of jobs; an
 * object equal member for member to a verified one reuses its parsed
 * SimOptions, and every other object gets the full round-trip check.
 */
class CheckedOptions
{
  public:
    SimOptions
    parse(std::uint64_t job_id, const JsonValue &opts)
    {
        // Only objects that passed the check below enter the memo, so
        // a non-object (no members) can never match one.
        const std::uint64_t h = membersHash(opts);
        const auto it = seen.find(h);
        if (it != seen.end() && sameMembers(*it->second.first, opts))
            return it->second.second;

        SimOptions parsed = parseCanonicalOptions(opts);
        verifyRoundTrip(job_id, opts, parsed);
        // On a hash collision the first object keeps the slot.
        seen.emplace(h, std::make_pair(&opts, parsed));
        return parsed;
    }

  private:
    /**
     * Re-canonicalising the parsed options must reproduce the sent
     * pre-image byte-for-byte.  A mismatch means this daemon would
     * simulate something other than what the client asked for —
     * reject loudly.
     */
    static void
    verifyRoundTrip(std::uint64_t job_id, const JsonValue &opts,
                    const SimOptions &parsed)
    {
        const std::string canon = optionsCanonicalJson(parsed);
        std::string sent;
        sent.reserve(canon.size());
        sent += '{';
        bool first = true;
        for (const auto &[key, value] : opts.members()) {
            if (!first)
                sent += ',';
            first = false;
            sent += '"';
            sent += key;
            sent += "\":";
            if (value.isString())
                appendJsonString(sent, value.str());
            else
                sent += jsonNum(value.number());
        }
        sent += '}';
        if (sent != canon)
            throw std::invalid_argument(
                "serve: job " + std::to_string(job_id) +
                " options do not round-trip (client/daemon "
                "option-schema drift): got " + sent +
                ", canonical " + canon);
    }

    std::unordered_map<std::uint64_t,
                       std::pair<const JsonValue *, SimOptions>>
        seen;
};

} // namespace

Campaign
parseSubmit(const JsonValue &msg, bool &include_timing)
{
    Campaign campaign;
    campaign.name = msg.strOr("name", "campaign");
    campaign.seed = u64Member(msg, "seed");
    const JsonValue *timing = msg.find("timing");
    include_timing = !timing || !timing->isBool() || timing->boolean();

    const JsonValue *jobs = msg.find("jobs");
    if (!jobs || !jobs->isArray())
        throw std::invalid_argument("serve: submit has no jobs array");

    CheckedOptions checked;
    for (const JsonValue &j : jobs->array()) {
        JobSpec spec;
        spec.id = u64Member(j, "id");
        spec.label = j.strOr("label", "");
        spec.seed = u64Member(j, "seed");
        const JsonValue *wl = j.find("workloads");
        if (!wl || !wl->isArray() || wl->array().empty())
            throw std::invalid_argument("serve: job " +
                                        std::to_string(spec.id) +
                                        " has no workloads");
        for (const JsonValue &w : wl->array()) {
            if (!w.isString())
                throw std::invalid_argument("serve: non-string "
                                            "workload name");
            spec.workloads.push_back(w.str());
        }
        const JsonValue *opts = j.find("options");
        if (!opts)
            throw std::invalid_argument("serve: job " +
                                        std::to_string(spec.id) +
                                        " has no options");
        spec.options = checked.parse(spec.id, *opts);
        spec.options.collect_stats_json =
            j.numberOr("stats", 0) != 0;

        if (const JsonValue *faults = j.find("faults")) {
            if (!faults->isArray())
                throw std::invalid_argument("serve: faults is not an "
                                            "array");
            for (const JsonValue &fv : faults->array()) {
                FaultRecord f{};
                f.kind = parseFaultKind(strMember(fv, "kind"));
                f.when = u64Member(fv, "when");
                f.core = static_cast<CoreId>(u64Member(fv, "core"));
                f.tid = static_cast<ThreadId>(u64Member(fv, "tid"));
                f.reg = static_cast<RegIndex>(u64Member(fv, "reg"));
                f.bit = static_cast<unsigned>(u64Member(fv, "bit"));
                f.fuIndex = static_cast<unsigned>(u64Member(fv, "fu"));
                f.mask = u64Member(fv, "mask");
                f.pairLogical =
                    static_cast<LogicalId>(u64Member(fv, "pair"));
                spec.faults.push_back(f);
            }
        }
        campaign.jobs.push_back(std::move(spec));
    }
    return campaign;
}

#if defined(__unix__) || defined(__APPLE__)

bool
sendFrame(int fd, char tag, const std::string &body)
{
    std::string framed;
    framed.reserve(9 + body.size());
    const std::size_t at = wire::beginFrame(framed);
    framed += tag;
    framed += body;
    wire::endFrame(framed, at);
    return wire::writeAll(fd, framed.data(), framed.size());
}

bool
FrameReader::next(std::string &payload)
{
    for (;;) {
        if (dec.next(payload))
            return true;
        char buf[ioChunkBytes];
        const long n = wire::readSome(fd, buf, sizeof(buf));
        if (n < 0)
            throw wire::WireError(std::string("serve: read failed: ") +
                                  std::strerror(errno));
        if (n == 0) {
            if (dec.truncated())
                throw wire::WireError("serve: connection closed "
                                      "mid-frame");
            return false;
        }
        dec.feed(buf, static_cast<std::size_t>(n));
    }
}

namespace
{

bool
fillSockaddr(const std::string &path, sockaddr_un &addr,
             std::string &error)
{
    if (path.size() >= sizeof(addr.sun_path)) {
        error = "socket path '" + path + "' is too long (max " +
                std::to_string(sizeof(addr.sun_path) - 1) + " bytes)";
        return false;
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

int
connectUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillSockaddr(path, addr, error))
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket(): ") + std::strerror(errno);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        error = "cannot connect to '" + path + "': " +
                std::strerror(errno) + " (is rmtsimd running?)";
        ::close(fd);
        return -1;
    }
    return fd;
}

int
listenUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillSockaddr(path, addr, error))
        return -1;

    // A leftover socket file from a killed daemon would make bind()
    // fail forever; probe it and only reclaim the path when nothing
    // answers.
    {
        std::string probe_error;
        const int probe = connectUnix(path, probe_error);
        if (probe >= 0) {
            ::close(probe);
            error = "'" + path + "' is already being served";
            return -1;
        }
        ::unlink(path.c_str());
    }

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket(): ") + std::strerror(errno);
        return -1;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = "cannot bind '" + path + "': " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        error = "cannot listen on '" + path + "': " +
                std::strerror(errno);
        ::close(fd);
        ::unlink(path.c_str());
        return -1;
    }
    return fd;
}

#endif // POSIX

} // namespace serve
} // namespace rmt
