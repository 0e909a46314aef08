#include "outcome.hh"

#include <charconv>
#include <sstream>
#include <stdexcept>

#include "obs/manifest.hh"

namespace perfbench
{

namespace
{

/** Tabs and newlines would split a record; replace them. */
std::string
clean(std::string s)
{
    for (char &c : s) {
        if (c == '\t' || c == '\n' || c == '\r')
            c = ' ';
    }
    return s;
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t tab = line.find('\t', start);
        out.push_back(line.substr(start, tab - start));
        if (tab == std::string::npos)
            return out;
        start = tab + 1;
    }
}

double
toDouble(const std::string &s)
{
    std::size_t used = 0;
    double v = std::stod(s, &used);
    if (used != s.size())
        throw std::runtime_error("bad number '" + s + "'");
    return v;
}

} // namespace

std::string
exactNumber(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

double
PointOutcome::value(const std::string &name, double fallback) const
{
    for (const auto &[n, v] : values) {
        if (n == name)
            return v;
    }
    return fallback;
}

std::string
PointOutcome::digest() const
{
    std::string text = label;
    for (const std::string &r : rows)
        text += "\n" + r;
    for (const nvsim::PerfCounters &c : counters) {
        text += "\n";
        for (std::uint64_t v : c.asArray())
            text += std::to_string(v) + " ";
    }
    for (const auto &[n, v] : values)
        text += "\n" + n + "=" + exactNumber(v);
    return nvsim::obs::digestHex(nvsim::obs::fnv1a64(text));
}

void
writeOutcome(std::FILE *out, const PointOutcome &p)
{
    std::fprintf(out, "point\t%s\n", clean(p.label).c_str());
    std::fprintf(out, "status\t%d\t%s\n", p.ok ? 1 : 0,
                 clean(p.error).c_str());
    std::fprintf(out, "time\t%s\t%s\t%llu\n",
                 exactNumber(p.setupS).c_str(),
                 exactNumber(p.measuredS).c_str(),
                 static_cast<unsigned long long>(p.lines));
    for (const std::string &r : p.rows)
        std::fprintf(out, "row\t%s\n", clean(r).c_str());
    for (const nvsim::PerfCounters &c : p.counters) {
        std::fprintf(out, "counters");
        for (std::uint64_t v : c.asArray())
            std::fprintf(out, "\t%llu", static_cast<unsigned long long>(v));
        std::fprintf(out, "\n");
    }
    for (const auto &[n, v] : p.values) {
        std::fprintf(out, "value\t%s\t%s\n", clean(n).c_str(),
                     exactNumber(v).c_str());
    }
    std::fprintf(out, "end\n");
}

void
writeMetric(std::FILE *out, const std::string &name, double v)
{
    std::fprintf(out, "metric\t%s\t%s\n", clean(name).c_str(),
                 exactNumber(v).c_str());
}

Messages
parseMessages(const std::string &text)
{
    Messages m;
    std::istringstream in(text);
    std::string line;
    PointOutcome cur;
    bool open = false;
    while (std::getline(in, line)) {
        std::vector<std::string> f = splitTabs(line);
        const std::string &tag = f[0];
        if (tag == "metric" && f.size() == 3) {
            m.metrics.emplace_back(f[1], toDouble(f[2]));
        } else if (tag == "point" && f.size() == 2) {
            cur = PointOutcome{};
            cur.label = f[1];
            open = true;
        } else if (!open) {
            throw std::runtime_error("unexpected line '" + line + "'");
        } else if (tag == "status" && f.size() == 3) {
            cur.ok = f[1] == "1";
            cur.error = f[2];
        } else if (tag == "time" && f.size() == 4) {
            cur.setupS = toDouble(f[1]);
            cur.measuredS = toDouble(f[2]);
            cur.lines = std::stoull(f[3]);
        } else if (tag == "row" && f.size() == 2) {
            cur.rows.push_back(f[1]);
        } else if (tag == "counters" &&
                   f.size() == nvsim::PerfCounters::numFields() + 1) {
            nvsim::PerfCounters c;
            std::size_t i = 1;
            c.forEachField([&](const char *, const char *,
                               std::uint64_t &v) {
                v = std::stoull(f[i++]);
            });
            cur.counters.push_back(c);
        } else if (tag == "value" && f.size() == 3) {
            cur.values.emplace_back(f[1], toDouble(f[2]));
        } else if (tag == "end") {
            m.points.push_back(std::move(cur));
            open = false;
        } else {
            throw std::runtime_error("unexpected line '" + line + "'");
        }
    }
    return m;
}

} // namespace perfbench
