// Unit tests for util/table: layout, CSV escaping, formatting helpers, and
// error contracts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/table.hpp"

namespace mwr::util {
namespace {

TEST(Table, AsciiContainsTitleHeaderAndRows) {
  Table table("My Table");
  table.set_header({"a", "bb"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("My Table"), std::string::npos);
  EXPECT_NE(ascii.find("| a "), std::string::npos);
  EXPECT_NE(ascii.find("333"), std::string::npos);
}

TEST(Table, ColumnsAlignToWidestCell) {
  Table table("t");
  table.set_header({"x"});
  table.add_row({"wide-cell"});
  const std::string ascii = table.to_ascii();
  // Header cell padded to the width of "wide-cell".
  EXPECT_NE(ascii.find("| x         |"), std::string::npos);
}

TEST(Table, RowCountIgnoresSeparators) {
  Table table("t");
  table.set_header({"x"});
  table.add_row({"1"});
  table.add_separator();
  table.add_row({"2"});
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table table("t");
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsHeaderAfterRows) {
  Table table("t");
  table.set_header({"a"});
  table.add_row({"1"});
  EXPECT_THROW(table.set_header({"b"}), std::logic_error);
}

TEST(Table, CsvSkipsSeparatorsAndEscapes) {
  Table table("t");
  table.set_header({"name", "value"});
  table.add_row({"plain", "1"});
  table.add_separator();
  table.add_row({"has,comma", "has\"quote"});
  const std::string csv = table.to_csv();
  EXPECT_EQ(csv, "name,value\nplain,1\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST(Table, EmitWritesCsvFile) {
  Table table("t");
  table.set_header({"a"});
  table.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/mwr_table_test.csv";
  std::ostringstream sink;
  table.emit(sink, path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a");
  f.close();
  std::remove(path.c_str());
}

TEST(Table, EmitThrowsOnUnwritableCsvPath) {
  Table table("t");
  table.set_header({"a"});
  std::ostringstream sink;
  EXPECT_THROW(table.emit(sink, "/nonexistent-dir/x.csv"),
               std::runtime_error);
}

TEST(Table, EmitThrowsOnAFullDisk) {
  // /dev/full accepts the open and the buffered write; ENOSPC surfaces only
  // when the bytes are flushed, so emit must close before it checks.
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  Table table("t");
  table.set_header({"a"});
  table.add_row({"1"});
  std::ostringstream sink;
  EXPECT_THROW(table.emit(sink, "/dev/full"), std::runtime_error);
}

TEST(Formatting, MeanSd) {
  EXPECT_EQ(fmt_mean_sd(94.53, 5.61), "94.5 (5.6)");
  EXPECT_EQ(fmt_mean_sd(1.0, 0.0, 2), "1.00 (0.00)");
}

TEST(Formatting, Fixed) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(10.0, 0), "10");
}

}  // namespace
}  // namespace mwr::util
