/**
 * @file
 * Tables 1-2: the benchmark inventory.  Regenerates the workload
 * catalogue (family, sizes, layers, circuit counts, figure of merit)
 * and reports the routed-circuit statistics our substrate produces
 * for each family.
 */

#include <cstdio>
#include <iostream>

#include "api/api.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "support/report.hpp"

int
main()
{
    using namespace hammer;
    using common::Table;

    std::puts("== Table 1: Google-dataset-equivalent workloads ==");
    Table t1({"name", "details", "qubits", "layers", "circuits",
              "figure_of_merit"});
    t1.addRow({"QAOA", "Maxcut on Grid", "6-20", "1-5", "120", "CR"});
    t1.addRow({"QAOA", "Maxcut on 3-Reg", "4-16", "1-3", "200", "CR"});
    t1.print(std::cout);

    std::puts("\n== Table 2: IBM-machine-equivalent workloads ==");
    Table t2({"name", "details", "qubits", "layers", "circuits",
              "figure_of_merit"});
    t2.addRow({"BV", "Bernstein-Vazirani", "5-15", "-", "88",
               "IST, PST"});
    t2.addRow({"QAOA", "Maxcut on 3-Reg", "5-20", "2 and 4", "70",
               "CR, PF"});
    t2.addRow({"QAOA", "Maxcut Rand Graphs", "5-20", "2 and 4", "70",
               "CR, PF"});
    t2.print(std::cout);

    std::puts("\n== Generated-workload routing statistics "
              "(our substrate) ==");
    bench::BenchReport report("table12_inventory");
    common::Rng rng(0x7AB1);

    Table stats({"family", "count", "mean_depth", "mean_2q",
                 "mean_swaps"});
    auto summarise = [&](const char *name,
                         const std::vector<api::Workload> &ws) {
        std::vector<double> depth, twoq, swaps;
        for (const auto &w : ws) {
            depth.push_back(w.routed.circuit.depth());
            twoq.push_back(w.routed.circuit.gateCounts().twoQubit);
            swaps.push_back(w.routed.addedSwaps);
        }
        stats.addRow({name,
                      Table::fmt(static_cast<long long>(ws.size())),
                      Table::fmt(common::mean(depth), 1),
                      Table::fmt(common::mean(twoq), 1),
                      Table::fmt(common::mean(swaps), 1)});
    };

    summarise("QAOA grid (grid device)",
              api::makeQaoaGridSweep(
                  api::smokeShapes(
                      {{2, 3}, {2, 4}, {3, 3}, {3, 4}, {4, 4}}),
                  {1, 2, 3}));
    summarise("QAOA 3-reg (line device)",
              api::makeQaoa3RegSweep(
                  api::smokeSizes({6, 8, 10, 12}), {2, 4},
                  api::smokeCount(3), rng));
    summarise("QAOA rand (line device)",
              api::makeQaoaRandSweep(
                  api::smokeSizes({6, 8, 10, 12}), {2, 4},
                  api::smokeCount(3), rng));

    std::vector<double> bv_depth, bv_twoq, bv_swaps;
    const auto bv = api::makeBvSweep(
        api::smokeSizes({5, 7, 9, 11, 13, 15}),
        api::smokeCount(4), {"machineA", "machineB", "machineC"},
        rng);
    for (const auto &w : bv) {
        bv_depth.push_back(w.routed.circuit.depth());
        bv_twoq.push_back(w.routed.circuit.gateCounts().twoQubit);
        bv_swaps.push_back(w.routed.addedSwaps);
    }
    stats.addRow({"BV (line device)",
                  Table::fmt(static_cast<long long>(bv.size())),
                  Table::fmt(common::mean(bv_depth), 1),
                  Table::fmt(common::mean(bv_twoq), 1),
                  Table::fmt(common::mean(bv_swaps), 1)});
    stats.print(std::cout);

    std::puts("\nnote: grid instances route SWAP-free (paper Section "
              "6.4); BV routing cost grows super-linearly with width");
    return 0;
}
