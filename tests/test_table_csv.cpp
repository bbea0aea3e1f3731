// Unit tests for the table and CSV emitters used by the bench harnesses,
// and the number formatter behind them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/table.hpp"

namespace rfid {
namespace {

TEST(TablePrinter, RendersHeadersAndRows) {
  TablePrinter table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  std::ostringstream oss;
  table.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TablePrinter, TitleAppearsFirst) {
  TablePrinter table({"x"});
  table.set_title("My Title");
  std::ostringstream oss;
  table.print(oss);
  EXPECT_EQ(oss.str().rfind("My Title", 0), 0u);
}

TEST(TablePrinter, ColumnsAlignToWidestCell) {
  TablePrinter table({"a", "b"});
  table.add_row({"looooooong", "1"});
  std::ostringstream oss;
  table.print(oss);
  // Every rendered line between rules must have the same length.
  std::istringstream iss(oss.str());
  std::string line;
  std::size_t width = 0;
  while (std::getline(iss, line)) {
    if (line.empty()) continue;
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TablePrinter, RowArityEnforced) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractViolation);
}

TEST(TablePrinter, EmptyHeadersRejected) {
  EXPECT_THROW(TablePrinter({}), ContractViolation);
}

TEST(TablePrinter, NumFormatsFixedDigits) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::num(1.005e3, 1), "1005.0");
}

TEST(Format, MatchesPrintfAtTheExtremes) {
  // printf is the reference: every JSON, CSV and table number must keep
  // the bytes it prints, at each precision the repo uses and at the
  // largest one the formatter accepts (which sizes its buffer for DBL_MAX
  // in fixed notation).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           -2.5,
                           1e17,
                           123456789.125,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max(),
                           kInf,
                           -kInf,
                           std::numeric_limits<double>::quiet_NaN()};
  std::vector<char> expected(512);
  for (const double value : values) {
    for (const int precision : {0, 1, 2, 12, 17, 64}) {
      std::snprintf(expected.data(), expected.size(), "%.*g", precision,
                    value);
      EXPECT_EQ(format_double(value, precision), expected.data());
      std::snprintf(expected.data(), expected.size(), "%.*f", precision,
                    value);
      EXPECT_EQ(format_double(value, precision, FloatFormat::kFixed),
                expected.data());
    }
  }
  std::string out = "n=";
  append_int(out, std::numeric_limits<std::uint64_t>::max());
  append_int(out, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(out, "n=18446744073709551615-9223372036854775808");
  EXPECT_THROW((void)format_double(1.0, 65), ContractViolation);
  EXPECT_THROW((void)format_double(1.0, -1), ContractViolation);
}

TEST(CsvWriter, WritesRowsAndEscapes) {
  const std::string path = testing::TempDir() + "rfid_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b,c", "d\"e"});
    csv.write_row({"1", "2", "3"});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1,2,3");
  std::remove(path.c_str());
}

TEST(CsvWriter, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

}  // namespace
}  // namespace rfid
