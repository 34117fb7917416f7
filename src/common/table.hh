/**
 * @file
 * Text-table and CSV emission used by the benchmark harness to print
 * paper-style rows and to persist series for plotting.
 */

#ifndef MTDAE_COMMON_TABLE_HH
#define MTDAE_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace mtdae {

/**
 * Accumulates rows of strings and prints them with aligned columns.
 * The first added row is treated as the header and underlined.
 */
class TextTable
{
  public:
    /** Add a row of cells; the first row becomes the header. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with the given precision. */
    static std::string fmt(double v, int precision = 2);

    /** Render all rows with aligned columns. */
    void print(std::ostream &os) const;

    /** Number of rows added (header included). */
    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Minimal CSV writer; quotes nothing (callers use simple tokens).
 */
class CsvWriter
{
  public:
    /** Open @p path for writing; on failure warn and write nothing
     *  (as for an empty path). */
    explicit CsvWriter(const std::string &path);
    ~CsvWriter();

    CsvWriter(const CsvWriter &) = delete;
    CsvWriter &operator=(const CsvWriter &) = delete;

    /** Write one comma-joined row. No-op when the writer is disabled. */
    void row(const std::vector<std::string> &cells);

    /** True when a file is open. */
    bool enabled() const { return out_ != nullptr; }

  private:
    void *out_;  // FILE*, kept opaque to avoid <cstdio> in the header
};

} // namespace mtdae

#endif // MTDAE_COMMON_TABLE_HH
