//===- tests/SupportTest.cpp - Support library unit tests ----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"
#include "support/Crc32c.h"
#include "support/Csv.h"
#include "support/CurveFit.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace isp;

namespace {

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(stddev({5, 5, 5}), 0.0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-9);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometricMean({1, 100}), 10.0, 1e-9);
  // Non-positive samples are skipped, SPEC-style.
  EXPECT_NEAR(geometricMean({0, 1, 100}), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(geometricMean({0, -3}), 0.0);
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50), 3.0);
}

TEST(Stats, Accumulator) {
  Accumulator Acc;
  EXPECT_DOUBLE_EQ(Acc.average(), 0.0);
  Acc.add(10);
  Acc.add(2);
  Acc.add(6);
  EXPECT_DOUBLE_EQ(Acc.Min, 2.0);
  EXPECT_DOUBLE_EQ(Acc.Max, 10.0);
  EXPECT_DOUBLE_EQ(Acc.average(), 6.0);
  EXPECT_EQ(Acc.Count, 3u);
}

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(Random, DeterministicAndSeedSensitive) {
  Rng A(42), B(42), C(7);
  bool Differs = false;
  for (int I = 0; I != 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    if (VA != C.next())
      Differs = true;
  }
  EXPECT_TRUE(Differs);
}

TEST(Random, BoundsRespected) {
  Rng R(1);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Random, RoughlyUniform) {
  Rng R(99);
  int Buckets[10] = {};
  constexpr int Samples = 100000;
  for (int I = 0; I != Samples; ++I)
    ++Buckets[R.nextBelow(10)];
  for (int Count : Buckets) {
    EXPECT_GT(Count, Samples / 10 - Samples / 50);
    EXPECT_LT(Count, Samples / 10 + Samples / 50);
  }
}

//===----------------------------------------------------------------------===//
// Crc32c
//===----------------------------------------------------------------------===//

TEST(Crc32c, StandardCheckValueOnBothPaths) {
  // CRC-32C("123456789") = 0xE3069283, the catalogued check value; the
  // CRC of no bytes is 0.
  const char Check[] = "123456789";
  EXPECT_EQ(crc32cTable(Check, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(Check, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(Check, 0), 0u);
  if (!crc32cHardwareAvailable())
    GTEST_SKIP() << "no SSE4.2 crc32 on this CPU; the table path was checked";
  EXPECT_EQ(crc32cHardware(Check, 9), 0xE3069283u);
  EXPECT_EQ(crc32cHardware(Check, 0), 0u);
}

TEST(Crc32c, PathsAgreeAtEveryLengthAndAlignment) {
  // The hardware path takes eight bytes at a time and the rest one by
  // one, so lengths 0..40 at offsets 0..7 cover every split.
  if (!crc32cHardwareAvailable())
    GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  Rng R(5);
  std::vector<unsigned char> Bytes(48);
  for (unsigned char &B : Bytes)
    B = static_cast<unsigned char>(R.next());
  for (size_t Offset = 0; Offset != 8; ++Offset)
    for (size_t Len = 0; Len + Offset <= 40; ++Len)
      EXPECT_EQ(crc32cHardware(Bytes.data() + Offset, Len),
                crc32cTable(Bytes.data() + Offset, Len))
          << "offset " << Offset << ", length " << Len;
}

//===----------------------------------------------------------------------===//
// CurveFit
//===----------------------------------------------------------------------===//

std::vector<FitPoint> makeSeries(double (*F)(double), double Lo, double Hi,
                                 double Step) {
  std::vector<FitPoint> Points;
  for (double N = Lo; N <= Hi; N += Step)
    Points.push_back({N, F(N)});
  return Points;
}

TEST(CurveFit, RecognizesLinear) {
  auto Points = makeSeries([](double N) { return 3 * N + 20; }, 8, 512, 16);
  FitResult Fit = fitCurve(Points);
  EXPECT_EQ(Fit.best().Model, GrowthModel::Linear);
  EXPECT_NEAR(Fit.best().Slope, 3.0, 0.01);
  EXPECT_NEAR(Fit.PowerLawAlpha, 1.0, 0.1);
}

TEST(CurveFit, RecognizesQuadratic) {
  auto Points = makeSeries([](double N) { return 0.5 * N * N + N; }, 8, 512,
                           16);
  FitResult Fit = fitCurve(Points);
  EXPECT_EQ(Fit.best().Model, GrowthModel::Quadratic);
  EXPECT_NEAR(Fit.PowerLawAlpha, 2.0, 0.15);
}

TEST(CurveFit, RecognizesNLogN) {
  auto Points = makeSeries(
      [](double N) { return 2 * N * std::log2(N) + 5; }, 16, 4096, 64);
  FitResult Fit = fitCurve(Points);
  EXPECT_EQ(Fit.best().Model, GrowthModel::NLogN);
}

TEST(CurveFit, RecognizesConstantAndLog) {
  auto Flat = makeSeries([](double N) { return 42.0; }, 4, 256, 8);
  EXPECT_EQ(fitCurve(Flat).best().Model, GrowthModel::Constant);
  auto Log = makeSeries([](double N) { return 7 * std::log2(N) + 3; }, 4,
                        65536, 997);
  EXPECT_EQ(fitCurve(Log).best().Model, GrowthModel::Log);
}

TEST(CurveFit, ParsimonyPrefersSlowerGrowth) {
  // Linear data with mild noise must not be labelled quadratic.
  std::vector<FitPoint> Points;
  for (double N = 10; N <= 500; N += 10)
    Points.push_back({N, 5 * N + (static_cast<int>(N) % 7) * 3.0});
  FitResult Fit = fitCurve(Points);
  EXPECT_EQ(Fit.best().Model, GrowthModel::Linear);
}

TEST(CurveFit, DegenerateInputs) {
  EXPECT_EQ(fitCurve({}).best().Model, GrowthModel::Constant);
  EXPECT_EQ(fitCurve({{5, 10}}).best().Model, GrowthModel::Constant);
  // Two identical N values: regression degenerates to the intercept.
  FitResult Fit = fitCurve({{5, 10}, {5, 20}});
  EXPECT_EQ(Fit.best().Model, GrowthModel::Constant);
}

TEST(CurveFit, StaticGrowthClassAndAgreement) {
  EXPECT_STREQ(staticGrowthClassName(0), "O(1)");
  EXPECT_STREQ(staticGrowthClassName(1), "O(n)");
  EXPECT_STREQ(staticGrowthClassName(2), "O(n^2)");
  EXPECT_STREQ(staticGrowthClassName(3), "O(n^3+)");
  EXPECT_TRUE(staticGrowthAgrees(1, 1.3));
  EXPECT_TRUE(staticGrowthAgrees(1, 1.5));
  EXPECT_TRUE(staticGrowthAgrees(2, 1.1)); // static is an upper bound
  EXPECT_FALSE(staticGrowthAgrees(1, 2.2));
}

TEST(CurveFit, StaticGrowthCellsAndWarning) {
  std::vector<std::string> Cells;
  std::string Warnings;
  appendStaticGrowthCells(Cells, Warnings, "a", std::nullopt, 2.0);
  appendStaticGrowthCells(Cells, Warnings, "b", 1u, std::nullopt);
  appendStaticGrowthCells(Cells, Warnings, "c", 2u, 1.9);
  EXPECT_EQ(Warnings, "");
  appendStaticGrowthCells(Cells, Warnings, "d", 1u, 2.25);
  EXPECT_EQ(Cells, (std::vector<std::string>{"-", "-", "O(n)", "-",
                                             "O(n^2)", "yes", "O(n)",
                                             "NO"}));
  EXPECT_EQ(Warnings, "warning: static-vs-dynamic growth contradiction: d "
                      "measured alpha 2.25 exceeds static O(n)\n");
}

//===----------------------------------------------------------------------===//
// Format / Table / Csv
//===----------------------------------------------------------------------===//

TEST(Format, Basics) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatWithCommas(0), "0");
  EXPECT_EQ(formatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(2500000), "2.5 MB");
  EXPECT_EQ(formatRatio(3.14), "3.1x");
}

TEST(Format, HumanizedCounts) {
  // Small counts stay exact; larger ones scale to engineering units.
  EXPECT_EQ(formatCount(0), "0");
  EXPECT_EQ(formatCount(972), "972");
  EXPECT_EQ(formatCount(54292), "54.3k");
  EXPECT_EQ(formatCount(1234567), "1.2M");
  EXPECT_EQ(formatCount(2500000000ull), "2.5G");
}

TEST(Format, HumanizedDurations) {
  EXPECT_EQ(formatDuration(0), "0 ns");
  EXPECT_EQ(formatDuration(999), "999 ns");
  EXPECT_EQ(formatDuration(12300), "12.3 us");
  EXPECT_EQ(formatDuration(4560000), "4.6 ms");
  EXPECT_EQ(formatDuration(2100000000ull), "2.1 s");
  // Durations never scale past seconds.
  EXPECT_EQ(formatDuration(7200000000000ull), "7200.0 s");
}

TEST(Table, AlignsColumns) {
  TextTable Table;
  Table.setHeader({"name", "value"});
  Table.addRow({"a", "1"});
  Table.addRow({"longer", "23456"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer"), std::string::npos);
  // Numeric column is right-aligned: "1" lines up under the "value" end.
  EXPECT_NE(Out.find("    1"), std::string::npos);
}

TEST(Csv, EscapesSpecialCells) {
  CsvWriter Csv;
  Csv.addRow({"a", "b,c", "d\"e"});
  EXPECT_EQ(Csv.render(), "a,\"b,c\",\"d\"\"e\"\n");
}

//===----------------------------------------------------------------------===//
// CommandLine
//===----------------------------------------------------------------------===//

TEST(CommandLine, ParsesOptionsAndPositionals) {
  OptionParser Parser("test");
  Parser.addOption("size", "128", "problem size");
  Parser.addFlag("verbose", "more output");
  const char *Argv[] = {"prog", "--size=256", "--verbose", "input.txt"};
  ASSERT_TRUE(Parser.parse(4, Argv));
  EXPECT_EQ(Parser.getInt("size"), 256);
  EXPECT_TRUE(Parser.getFlag("verbose"));
  ASSERT_EQ(Parser.positional().size(), 1u);
  EXPECT_EQ(Parser.positional()[0], "input.txt");
}

TEST(CommandLine, SeparateValueForm) {
  OptionParser Parser("test");
  Parser.addOption("threads", "4", "thread count");
  const char *Argv[] = {"prog", "--threads", "8"};
  ASSERT_TRUE(Parser.parse(3, Argv));
  EXPECT_EQ(Parser.getInt("threads"), 8);
}

TEST(CommandLine, RejectsUnknownOption) {
  OptionParser Parser("test");
  const char *Argv[] = {"prog", "--nope"};
  EXPECT_FALSE(Parser.parse(2, Argv));
}

TEST(CommandLine, RejectsDuplicateOption) {
  // A repeated option used to silently overwrite the earlier value —
  // a reliable way to waste a benchmark run on the wrong parameters.
  OptionParser Parser("test");
  Parser.addOption("size", "128", "problem size");
  const char *Argv[] = {"prog", "--size=256", "--size=512"};
  EXPECT_FALSE(Parser.parse(3, Argv));
}

TEST(CommandLine, RejectsDuplicateFlag) {
  OptionParser Parser("test");
  Parser.addFlag("verbose", "more output");
  const char *Argv[] = {"prog", "--verbose", "--verbose"};
  EXPECT_FALSE(Parser.parse(3, Argv));
}

} // namespace

//===----------------------------------------------------------------------===//
// Gnuplot emission
//===----------------------------------------------------------------------===//

#include "support/Gnuplot.h"

#include <cstdio>
#include <fstream>

namespace {

TEST(Gnuplot, RendersDataAndScript) {
  GnuplotFigure Fig("test title", "n", "cost");
  Fig.addSeries({"by rms", {{1, 2}, {3, 4}}, "points pt 7"});
  Fig.addSeries({"by trms", {{1, 3}, {3, 9}}, "linespoints"});
  Fig.setLogScale(false, true);

  std::string Data = Fig.renderData();
  EXPECT_NE(Data.find("# series 0: by rms"), std::string::npos);
  EXPECT_NE(Data.find("3 9"), std::string::npos);

  std::string Script = Fig.renderScript("fig.dat", "fig.png");
  EXPECT_NE(Script.find("set logscale y"), std::string::npos);
  EXPECT_EQ(Script.find("set logscale x"), std::string::npos);
  EXPECT_NE(Script.find("index 1 with linespoints title 'by trms'"),
            std::string::npos);
  EXPECT_NE(Script.find("set output 'fig.png'"), std::string::npos);
}

TEST(Gnuplot, WritesFiles) {
  GnuplotFigure Fig("t", "x", "y");
  Fig.addSeries({"s", {{0, 0}, {1, 1}}, "points"});
  std::string Base = ::testing::TempDir() + "isprof_gnuplot_test";
  ASSERT_TRUE(Fig.write(Base));
  std::ifstream Gp(Base + ".gp");
  EXPECT_TRUE(Gp.good());
  std::ifstream Dat(Base + ".dat");
  EXPECT_TRUE(Dat.good());
  std::remove((Base + ".gp").c_str());
  std::remove((Base + ".dat").c_str());
}

} // namespace
