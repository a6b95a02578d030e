//! Experiment harness regenerating every table and figure of the
//! PASTA-on-Edge paper.
//!
//! Each binary under `src/bin/` reproduces one artifact:
//!
//! | binary                 | paper artifact                        |
//! |------------------------|---------------------------------------|
//! | `table1_fpga_area`     | Tab. I (FPGA LUT/FF/DSP)              |
//! | `table2_performance`   | Tab. II (cycles + µs per platform)    |
//! | `table3_comparison`    | Tab. III (vs prior client accelerators)|
//! | `fig7_area_breakdown`  | Fig. 7 (module-wise area)             |
//! | `fig8_video_frames`    | Fig. 8 (video frames/s vs RISE)       |
//! | `analysis_mulcount`    | §I.A multiplication-count analysis    |
//! | `analysis_keccak`      | §IV.B Keccak-budget analysis          |
//!
//! Three more binaries commit host wall-clock records, `BENCH_*.json`
//! rows with a `before` and an `after` phase: `bench_hotpath` (NTT
//! round-trips, scalar and batched transcipher), `bench_mul` (BFV
//! multiplication, bigint oracle vs RNS) and `bench_rotation` (packed
//! transcipher, naive vs BSGS rotations). They share one harness in
//! [`report`]: the option parser, the min-of-reps timer, the
//! per-SIMD-backend loop and the report path, which stamps the thread
//! count and host CPU into each file. `loadgen` writes the service
//! record, `BENCH_server.json`. The whole stack's wall-clock benchmark
//! is `wallbench/`, a package of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod priorwork;
pub mod report;
