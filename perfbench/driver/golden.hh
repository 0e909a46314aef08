/**
 * @file
 * The checked-in golden CSVs (tests/golden/) and the row format the
 * figure benches write, so the benchmark's outputs can be compared to
 * them byte for byte.
 */

#ifndef PERFBENCH_GOLDEN_HH
#define PERFBENCH_GOLDEN_HH

#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/**
 * One CSV line as nvsim's CsvWriter writes it: a field holding a
 * comma, quote or newline is quoted, with quotes doubled.
 */
std::string csvLine(const std::vector<std::string> &fields);

/** A golden CSV, keyed by each row's leading columns (all but the last). */
class Golden
{
  public:
    /** Parse CSV text; the header line is kept like any other row. */
    static Golden fromText(const std::string &text);

    /** Read @p path; throws std::runtime_error when it cannot. */
    static Golden load(const std::string &path);

    /** The golden row with the same leading columns as @p row. */
    const std::string *find(const std::string &row) const;

  private:
    std::map<std::string, std::string> rows_;
};

/** Empty when @p row byte-equals its golden row, else the reason. */
std::string checkGoldenRow(const Golden &golden, const std::string &row);

} // namespace perfbench

#endif // PERFBENCH_GOLDEN_HH
