/**
 * @file
 * Fixed-width table and ASCII-bar output for the bench binaries,
 * plus CSV export so results can be re-plotted.
 */

#ifndef DRISIM_HARNESS_TABLE_HH
#define DRISIM_HARNESS_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace drisim
{

/** A simple column-aligned text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row (must match the header count). */
    void addRow(std::vector<std::string> cells);

    /**
     * Pre-size the table to @p n empty rows so parallel producers
     * can fill them by index: the rendered order is the slot order,
     * never the completion order.
     */
    void reserveRows(size_t n);

    /** Fill slot @p index (created by reserveRows or addRow). */
    void setRow(size_t index, std::vector<std::string> cells);

    /** Render with padded columns. */
    void print(std::ostream &os) const;

    /** Render as CSV. */
    void printCsv(std::ostream &os) const;

    size_t rows() const { return rows_.size(); }

    const std::vector<std::string> &headers() const { return headers_; }

    /** Every row's cells, in slot order. */
    const std::vector<std::vector<std::string>> &cells() const
    {
        return rows_;
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p decimals places. */
std::string fmtDouble(double v, int decimals = 3);

/** Format a percentage. */
std::string fmtPercent(double fraction, int decimals = 1);

/**
 * A horizontal ASCII bar of @p value scaled so 1.0 = @p width
 * characters (clamped), e.g. for normalized energy-delay plots.
 */
std::string asciiBar(double value, unsigned width = 40);

} // namespace drisim

#endif // DRISIM_HARNESS_TABLE_HH
