// JSON run-report serialisation and the well-formedness checker.
#include "stats/json_report.hpp"

#include <gtest/gtest.h>

#include "workloads/harness.hpp"
#include "workloads/mmul.hpp"

namespace dta::stats {
namespace {

TEST(ValidateJson, AcceptsWellFormedDocuments) {
    EXPECT_TRUE(validate_json("{}"));
    EXPECT_TRUE(validate_json("[]"));
    EXPECT_TRUE(validate_json("  {\"a\": [1, 2.5, -3, 1e9], \"b\": "
                              "{\"c\": null, \"d\": [true, false]}}  "));
    EXPECT_TRUE(validate_json(R"({"s": "esc \" \\ \n A"})"));
}

TEST(ValidateJson, RejectsMalformedDocuments) {
    EXPECT_FALSE(validate_json(""));
    EXPECT_FALSE(validate_json("{"));
    EXPECT_FALSE(validate_json("{\"a\": }"));
    EXPECT_FALSE(validate_json("{\"a\": 1,}"));
    EXPECT_FALSE(validate_json("[1 2]"));
    EXPECT_FALSE(validate_json("{\"a\": 1} trailing"));
    EXPECT_FALSE(validate_json(R"({"bad": "\x"})"));
    EXPECT_FALSE(validate_json("{\"unterminated: 1}"));
}

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape("x\ny"), "x\\ny");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(MetricsJson, SerialisesAllInstrumentKinds) {
    sim::MetricsRegistry reg;
    reg.enable();
    reg.counter("dma.commands")->add(7);
    sim::Histogram* h = reg.histogram("dma.tag_latency");
    h->record(100);
    h->record(200);

    const std::string json = metrics_json(reg);
    EXPECT_TRUE(validate_json(json)) << json;
    EXPECT_NE(json.find("\"dma.commands\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"sum\": 300"), std::string::npos);
    EXPECT_EQ(json.find("gauges"), std::string::npos);
}

TEST(MetricsJson, EmptyRegistryIsStillValid) {
    const sim::MetricsRegistry reg;
    const std::string json = metrics_json(reg);
    EXPECT_TRUE(validate_json(json)) << json;
    EXPECT_NE(json.find("\"enabled\": false"), std::string::npos);
}

TEST(RunReport, RoundTripsARealMetricsRun) {
    workloads::MatMul::Params p;
    p.n = 8;
    p.threads = 4;
    const workloads::MatMul wl(p);
    auto cfg = workloads::MatMul::machine_config(2);
    cfg.collect_metrics = true;
    const auto outcome = workloads::run_workload(wl, cfg, true);
    ASSERT_TRUE(outcome.correct) << outcome.detail;

    const std::string json = run_report_json(outcome.result, "mmul");
    EXPECT_TRUE(validate_json(json)) << json;
    EXPECT_NE(json.find("\"benchmark\": \"mmul\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\": "), std::string::npos);
    EXPECT_NE(json.find("\"breakdown\": "), std::string::npos);
    // The instrumented hot paths all fired on a prefetch workload.
    EXPECT_NE(json.find("\"dma.tag_latency\""), std::string::npos);
    EXPECT_NE(json.find("\"sched.dispatch_wait\""), std::string::npos);
    EXPECT_NE(json.find("\"noc.packet_latency\""), std::string::npos);
    const auto& hs = outcome.result.metrics.histograms();
    EXPECT_GT(hs.at("dma.tag_latency").count(), 0u);
    EXPECT_GT(hs.at("sched.dispatch_wait").count(), 0u);
    EXPECT_GT(hs.at("noc.packet_latency").count(), 0u);
    EXPECT_GT(hs.at("sched.dma_suspend").count(), 0u);
}

TEST(RunReport, MetricsOffProducesValidReportWithoutInstruments) {
    workloads::MatMul::Params p;
    p.n = 8;
    p.threads = 4;
    const workloads::MatMul wl(p);
    const auto outcome =
        workloads::run_workload(wl, workloads::MatMul::machine_config(2),
                                true);
    ASSERT_TRUE(outcome.correct) << outcome.detail;
    const std::string json = run_report_json(outcome.result);
    EXPECT_TRUE(validate_json(json)) << json;
    EXPECT_NE(json.find("\"enabled\": false"), std::string::npos);
    EXPECT_TRUE(outcome.result.metrics.histograms().empty());
    EXPECT_TRUE(outcome.result.dma_spans.empty());
}

}  // namespace
}  // namespace dta::stats
