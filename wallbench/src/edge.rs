//! `edge-stream`: seeded QQVGA frames through the edge encryptor (with
//! the pipeline's default countermeasure, `MaterialRedundancy`) and
//! wire-frame chunking. Lane `a` is PASTA-4 (t = 32, r = 4), lane `b`
//! PASTA-3 (t = 128, r = 3); no FHE is involved.
//!
//! One edge device per worker thread, each encrypting its frames on its
//! own thread and alternating the lanes frame by frame. A single thread
//! would sample one vCPU, whose speed on a shared host drifts by tens of
//! percent from minute to minute; one device per vCPU averages them.
//! Each frame is decrypted and compared right after it is timed; then
//! the device times a batch of set-ups of its own (`setup_s`).

use crate::metrics::{lane as lane_metric, median, Report, Window};
use crate::sys::Stopwatch;
use crate::trace::Tracer;
use crate::Args;
use pasta_core::{derive_block_material, permute, PastaCipher, PastaParams, SecretKey};
use pasta_hw::fault::{protected_keystream, Countermeasure};
use pasta_hw::PastaProcessor;
use pasta_pipeline::wire::{CRC_LEN, HEADER_LEN};
use pasta_pipeline::{pack, EdgeEncryptor, WireFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// QQVGA, 8-bit grey.
const PIXELS: usize = 160 * 120;
/// Link MTU the session layer defaults to.
const MTU: usize = 1_400;
/// Device set-ups timed as one interval after every frame: one set-up
/// takes microseconds, too short to time on its own.
const SETUP_BATCH: usize = 50;
/// Frames whose set-up batches pool into one `setup_s` sample. The host's
/// single-core speed flips between two levels every fraction of a second,
/// so a sample spans seconds, as a frame rate does.
const SETUP_FRAMES: usize = 8;
/// Blocks of the fixed, seed-independent reference set the exact counts
/// are taken over.
const REFERENCE_BLOCKS: u64 = 32;
/// Cycles per block in the paper's Tab. II, per lane.
const PAPER_CYCLES: [(&str, u64); 2] = [("PASTA-4", 1_591), ("PASTA-3", 4_955)];
/// Span names per lane: frame, pack, wire, material, permute, protected
/// keystream, plain keystream.
const SPANS: [[&str; 7]; 2] = [
    [
        "edge.frame.a",
        "pipeline.pack.a",
        "pipeline.wire.a",
        "core.material.a",
        "core.permute.a",
        "hw.protected.a",
        "core.keystream.a",
    ],
    [
        "edge.frame.b",
        "pipeline.pack.b",
        "pipeline.wire.b",
        "core.material.b",
        "core.permute.b",
        "hw.protected.b",
        "core.keystream.b",
    ],
];

/// One lane of one edge device.
struct Lane {
    params: PastaParams,
    key: SecretKey,
    device: EdgeEncryptor,
}

/// The set-up of one device: key derivation and encryptor construction
/// for both lanes.
fn setup(seed: u64, device: usize) -> [Lane; 2] {
    [PastaParams::pasta4_17bit(), PastaParams::pasta3_17bit()].map(|params| {
        let label = format!("wallbench edge {seed} {device} {}", params.t());
        let key = SecretKey::from_seed(&params, label.as_bytes());
        Lane {
            params,
            key: key.clone(),
            device: EdgeEncryptor::new(params, key, Countermeasure::MaterialRedundancy),
        }
    })
}

/// Splits a whole-frame packed ciphertext into wire frames of whole
/// blocks and encodes them.
fn chunk(params: &PastaParams, frame_id: u32, nonce: u128, packed: &[u8]) -> Vec<Vec<u8>> {
    let block_bytes = params.ciphertext_block_bytes();
    let blocks_per_chunk = (MTU - HEADER_LEN - CRC_LEN) / block_bytes;
    packed
        .chunks(blocks_per_chunk * block_bytes)
        .enumerate()
        .map(|(i, payload)| {
            let counter_base =
                u32::try_from(i * blocks_per_chunk).expect("frame fits u32 counters");
            WireFrame::data(nonce, frame_id, counter_base, payload.to_vec()).encode()
        })
        .collect()
}

/// Encrypts and frames one frame. A traced run calls the two halves of
/// `encrypt_frame_packed` (encrypt, then `pack_bits`) separately so the
/// packing shows as its own span.
fn send_frame(
    lane: &mut Lane,
    spans: &[&'static str; 7],
    tr: &mut Tracer,
    frame_id: u32,
    nonce: u128,
    values: &[u64],
) -> Vec<Vec<u8>> {
    if !tr.on() {
        let packed = lane
            .device
            .encrypt_frame_packed(frame_id, nonce, values)
            .expect("clean frames encrypt");
        return chunk(&lane.params, frame_id, nonce, &packed);
    }
    let req = u64::from(frame_id);
    let root = tr.begin(spans[0], 0, req);
    let s = tr.begin("pipeline.encrypt_frame", root, req);
    let elements = lane
        .device
        .encrypt_frame(frame_id, nonce, values)
        .expect("clean frames encrypt");
    tr.end(s);
    let s = tr.begin(spans[1], root, req);
    let packed = pack::pack_bits(&elements, lane.params.modulus().bits());
    tr.end(s);
    let s = tr.begin(spans[2], root, req);
    let wire = chunk(&lane.params, frame_id, nonce, &packed);
    tr.end(s);
    tr.end(root);
    wire
}

/// Decodes, reassembles and decrypts one frame; true when it matches.
fn verify(lane: &Lane, nonce: u128, pixels: &[u8], wire: &[Vec<u8>]) -> bool {
    let mut payload = Vec::new();
    for bytes in wire {
        match WireFrame::decode(bytes) {
            Ok(frame) if frame.nonce == nonce => payload.extend_from_slice(&frame.payload),
            _ => return false,
        }
    }
    let elements = pack::unpack_bits(&payload, lane.params.modulus().bits(), pixels.len());
    let Ok(ct) = pack::ciphertext_from_elements(&lane.params, nonce, &elements) else {
        return false;
    };
    PastaCipher::new(lane.params, lane.key.clone())
        .decrypt(&ct)
        .is_ok_and(|m| {
            m.len() == pixels.len() && m.iter().zip(pixels).all(|(&x, &p)| x == u64::from(p))
        })
}

/// Standalone calls into the cipher and countermeasure layers on one of
/// the frame's blocks (traced runs only).
fn probe_block(
    lane: &Lane,
    spans: &[&'static str; 7],
    tr: &mut Tracer,
    req: u64,
    nonce: u128,
    counter: u64,
) {
    let p = &lane.params;
    let s = tr.begin(spans[3], 0, req);
    black_box(derive_block_material(p, nonce, counter));
    tr.end(s);
    let s = tr.begin(spans[4], 0, req);
    black_box(permute(p, lane.key.expose_elements(), nonce, counter).ok());
    tr.end(s);
    // Protected and plain keystream back to back, in alternating order,
    // so that each pair sees one host speed (see `hw.countermeasure_us`).
    let plain = PastaCipher::new(*p, lane.key.clone());
    for i in [counter % 2, 1 - counter % 2] {
        let s = tr.begin(spans[5 + i as usize], 0, req);
        if i == 0 {
            let cm = Countermeasure::MaterialRedundancy;
            black_box(protected_keystream(p, &lane.key, nonce, counter, None, cm).ok());
        } else {
            black_box(plain.keystream_block(nonce, counter).ok());
        }
        tr.end(s);
    }
}

/// What one device measured.
#[derive(Default)]
struct DeviceRun {
    /// Frame times less hypervisor steal (see `Stopwatch`).
    frame_ms: [Vec<f64>; 2],
    wall_ms: [Vec<f64>; 2],
    wire_bytes: [usize; 2],
    /// Mean time of one set-up, per sample (see `SETUP_FRAMES`).
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// One device's loop: alternate the lanes until the window closes.
fn run_device(args: &Args, device: usize, budget: Duration, tr: &mut Tracer) -> DeviceRun {
    let mut lanes = setup(args.seed, device);
    let mut rng = StdRng::seed_from_u64(args.seed ^ (0xED6E_0000 + device as u64));
    let mut out = DeviceRun::default();
    let start = Instant::now();
    let mut frame_id = 0u32;
    let (mut setup_s, mut setup_frames) = (0.0, 0);
    while start.elapsed() < budget {
        for (li, lane) in lanes.iter_mut().enumerate() {
            let pixels: Vec<u8> = (0..PIXELS).map(|_| rng.gen::<u8>()).collect();
            let values: Vec<u64> = pixels.iter().map(|&p| u64::from(p)).collect();
            let nonce = (u128::from(args.seed) << 64)
                | ((device as u128) << 40)
                | ((li as u128) << 32)
                | u128::from(frame_id);
            let watch = Stopwatch::start();
            let wire = send_frame(lane, &SPANS[li], tr, frame_id, nonce, &values);
            let (wall, running) = watch.read();
            out.frame_ms[li].push(running * 1e3);
            out.wall_ms[li].push(wall * 1e3);
            out.wire_bytes[li] = wire.iter().map(Vec::len).sum();
            out.attempted += 1;
            if !verify(lane, nonce, &pixels, &wire) {
                out.failed += 1;
            }
            let watch = Stopwatch::start();
            for _ in 0..SETUP_BATCH {
                black_box(setup(args.seed, device));
            }
            setup_s += watch.read().1;
            setup_frames += 1;
            if setup_frames == SETUP_FRAMES {
                out.setup_s
                    .push(setup_s / (SETUP_FRAMES * SETUP_BATCH) as f64);
                (setup_s, setup_frames) = (0.0, 0);
            }
            if tr.on() {
                let blocks = (PIXELS / lane.params.t()) as u64;
                for k in 0..2 {
                    let counter = (u64::from(frame_id) * 7 + k * 3) % blocks;
                    probe_block(lane, &SPANS[li], tr, u64::from(frame_id), nonce, counter);
                }
            }
        }
        frame_id += 1;
    }
    if setup_frames > 0 {
        out.setup_s
            .push(setup_s / (setup_frames * SETUP_BATCH) as f64);
    }
    out
}

/// Exact counts over the reference blocks: Keccak permutations per
/// block, sampler acceptance, and modelled cycles per block.
fn reference_counts(params: &PastaParams) -> (f64, f64, f64) {
    let key = SecretKey::from_seed(params, b"wallbench reference key");
    let cpu = PastaProcessor::new(*params);
    let nonce = 0x5EED_0001u128;
    let (mut perms, mut accepted, mut drawn, mut cycles) = (0u64, 0u64, 0u64, 0u64);
    for counter in 0..REFERENCE_BLOCKS {
        let m = derive_block_material(params, nonce, counter);
        perms += m.keccak_permutations;
        accepted += m.stats.accepted;
        drawn += m.stats.words_drawn;
        cycles += cpu
            .keystream_block(&key, nonce, counter)
            .expect("reference key matches its parameters")
            .cycles
            .total;
    }
    let n = REFERENCE_BLOCKS as f64;
    (
        perms as f64 / n,
        accepted as f64 / drawn as f64,
        cycles as f64 / n,
    )
}

pub fn run(args: &Args, budget: Duration, tr: &mut Tracer) -> Report {
    let mut report = Report::default();

    let devices = pasta_par::threads().max(1);
    let window = Window::open();
    let runs: Vec<(DeviceRun, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..devices)
            .map(|d| {
                let mut device_tr = tr.fork();
                scope.spawn(move || (run_device(args, d, budget, &mut device_tr), device_tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("edge device thread panicked"))
            .collect()
    });
    window.close(&mut report);

    let mut frame_ms: [Vec<f64>; 2] = Default::default();
    let mut wall_ms: [Vec<f64>; 2] = Default::default();
    let mut wire_bytes = [0usize; 2];
    for (run, device_tr) in runs {
        report.attempted += run.attempted;
        report.failed += run.failed;
        for s in run.setup_s {
            report.setup_sample(s);
        }
        for li in 0..2 {
            frame_ms[li].extend_from_slice(&run.frame_ms[li]);
            wall_ms[li].extend_from_slice(&run.wall_ms[li]);
            wire_bytes[li] = run.wire_bytes[li];
        }
        tr.absorb(device_tr);
    }
    let a = report.note_dist("frame_ms.a", &frame_ms[0]);
    let b = report.note_dist("frame_ms.b", &frame_ms[1]);
    report.note_dist("frame_wall_ms.a", &wall_ms[0]);
    report.note_dist("frame_wall_ms.b", &wall_ms[1]);
    // Frames per second of time one device spent on them.
    report.e2e("a_per_s", 1e3 / a.mean);
    report.e2e("b_per_s", 1e3 / b.mean);
    report.lane_latency("a", &a);
    report.lane_latency("b", &b);
    report.note("devices", devices.to_string());

    if tr.on() {
        let params = [PastaParams::pasta4_17bit(), PastaParams::pasta3_17bit()];
        for (li, (name, paper)) in PAPER_CYCLES.into_iter().enumerate() {
            let counts = reference_counts(&params[li]);
            if reference_counts(&params[li]) != counts {
                eprintln!("wallbench: {name} reference counts differ between two passes");
                report.failed += 1;
            }
            let (perms, accept, cycles) = counts;
            eprintln!(
                "wallbench: {name} hw.cycles_per_block = {cycles} (paper Tab. II: {paper}), \
                 keccak perms/block = {perms}, sampler acceptance = {accept:.4}"
            );
            let l = ["a", "b"][li];
            let spans = &SPANS[li];
            let blocks = (PIXELS / params[li].t()) as f64;
            report.layer(lane_metric("core.keccak_perms_per_block", l), perms);
            report.layer(lane_metric("core.sampler_accept_ratio", l), accept);
            report.layer(lane_metric("hw.cycles_per_block", l), cycles);
            report.layer(
                lane_metric("pipeline.wire_bytes_per_block", l),
                wire_bytes[li] as f64 / blocks,
            );
            report.layer(lane_metric("core.material_us", l), tr.mean_us(spans[3]));
            report.layer(lane_metric("core.permute_us", l), tr.mean_us(spans[4]));
            // Median over pairs: the host's speed flips within a frame,
            // which swamps a difference of two means.
            let extra: Vec<f64> = (tr.durations_us(spans[5]).iter())
                .zip(&tr.durations_us(spans[6]))
                .map(|(protected, plain)| protected - plain)
                .collect();
            report.layer(lane_metric("hw.countermeasure_us", l), median(&extra));
            report.layer(
                lane_metric("pipeline.frame_us", l),
                tr.mean_us(spans[1]) + tr.mean_us(spans[2]),
            );
        }
    }
    report
}
