#include "golden.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

namespace
{

std::string
keyOf(const std::string &row)
{
    std::size_t comma = row.rfind(',');
    return comma == std::string::npos ? row : row.substr(0, comma);
}

} // namespace

std::string
csvLine(const std::vector<std::string> &fields)
{
    std::string line;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i)
            line += ',';
        const std::string &f = fields[i];
        if (f.find_first_of(",\"\n") == std::string::npos) {
            line += f;
            continue;
        }
        line += '"';
        for (char c : f) {
            if (c == '"')
                line += '"';
            line += c;
        }
        line += '"';
    }
    return line;
}

Golden
Golden::fromText(const std::string &text)
{
    Golden g;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            g.rows_[keyOf(line)] = line;
    }
    return g;
}

Golden
Golden::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden file " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return fromText(text.str());
}

const std::string *
Golden::find(const std::string &row) const
{
    auto it = rows_.find(keyOf(row));
    return it == rows_.end() ? nullptr : &it->second;
}

std::string
checkGoldenRow(const Golden &golden, const std::string &row)
{
    const std::string *want = golden.find(row);
    if (!want)
        return "no golden row for '" + row + "'";
    if (*want != row)
        return "row '" + row + "' differs from golden '" + *want + "'";
    return {};
}

} // namespace perfbench
