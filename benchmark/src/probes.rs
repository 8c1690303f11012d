//! Direct per-layer probes: each times calls into one layer's public
//! functions from the outside, on inputs made from the seed. They are
//! the same in every `--trace 1` run, whatever the workload, and each
//! is sized to take a few tens of milliseconds.
//!
//! Unless a probe says otherwise it runs pinned to one CPU with one
//! shard, so that exactly one rank thread is runnable at a time and the
//! number measures the program, not where the kernel put two threads.

use std::hint::black_box;
use std::time::{Duration, Instant};

use empi_aead::profile::{CompilerBuild, CryptoLibrary, KeySize};
use empi_aead::{AesGcm, NONCE_LEN};
use empi_core::{KeyPlaneConfig, SecureComm, HARDCODED_KEY};
use empi_keys::kdf::derive_pair_key;
use empi_mpi::{Comm, Src, TagSel, World};
use empi_netsim::{Engine, NetModel, Topology, VDur};
use empi_pool::BufferPool;

use crate::stats::median;
use crate::sys;
use crate::workloads::{self, security_config, Kind, Rep, RepOpts, Spec, SplitMix64};

/// Time spent on one timing loop of a full run.
pub const BUDGET: Duration = Duration::from_millis(20);
const CHUNK: usize = 64 << 10;

/// `(label, bytes)` of the three record sizes the probes use.
const SIZES: [(&str, usize); 3] = [("256b", 256), ("16k", 16 << 10), ("2m", 2 << 20)];
const LIBS: [(&str, CryptoLibrary); 3] = [
    ("boringssl", CryptoLibrary::BoringSsl),
    ("libsodium", CryptoLibrary::Libsodium),
    ("cryptopp", CryptoLibrary::CryptoPp),
];

pub type Values = Vec<(String, f64)>;

/// Median nanoseconds of one call of `f`, over batches of `per_batch`
/// calls repeated for `budget` (at least three batches).
pub fn ns_per_call(budget: Duration, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&samples)
}

/// Calls per batch so that a batch over `bytes`-long buffers takes a
/// good fraction of a millisecond: long enough to dwarf the two clock
/// reads around it.
fn batch_for(bytes: usize) -> usize {
    ((1 << 20) / bytes.max(1)).clamp(1, 256)
}

/// Median `(seal ns, open ns)` per record the size of `buf`: a batch
/// seals the buffer in place `k` times, then opens it `k` times in
/// reverse, which leaves the plaintext as it was.
pub fn seal_open_ns(gcm: &AesGcm, buf: &mut [u8], budget: Duration) -> (f64, f64) {
    let k = batch_for(buf.len());
    let nonce = [0x24u8; NONCE_LEN];
    let (mut seal, mut open) = (Vec::new(), Vec::new());
    let mut tags = Vec::with_capacity(k);
    let start = Instant::now();
    while seal.len() < 3 || start.elapsed() < 2 * budget {
        tags.clear();
        let t = Instant::now();
        for _ in 0..k {
            tags.push(gcm.seal_detached(&nonce, b"", black_box(&mut *buf)));
        }
        seal.push(t.elapsed().as_nanos() as f64 / k as f64);
        let t = Instant::now();
        for tag in tags.iter().rev() {
            gcm.open_detached(&nonce, b"", black_box(&mut *buf), tag)
                .expect("a record this probe sealed must open");
        }
        open.push(t.elapsed().as_nanos() as f64 / k as f64);
    }
    (median(&seal), median(&open))
}

/// Host nanoseconds of `Engine::run` on `n` ranks and `shards` shards
/// where every rank advances its clock `advances` times by one tick;
/// equal clocks force a tenure change at every advance.
fn engine_run_ns(n: usize, shards: usize, advances: usize) -> f64 {
    let t = Instant::now();
    let out = Engine::new(n).shards(shards).run(|h| {
        for _ in 0..advances {
            h.advance(VDur(1));
        }
    });
    black_box(out.end_time);
    t.elapsed().as_nanos() as f64
}

/// Nanoseconds per advance with `n` ranks: the run's time less an
/// empty run's (spawn and join), per advance. Median of three.
fn handoff_ns(n: usize, shards: usize, advances: usize) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let empty = engine_run_ns(n, shards, 0);
            (engine_run_ns(n, shards, advances) - empty) / (n * advances) as f64
        })
        .collect();
    median(&samples)
}

/// Host nanoseconds per message of one 64-rank alltoall of 1 KB
/// blocks, as rank 0 times it between two barriers.
fn alltoall_ns_per_msg(secure: bool, seed: u64) -> f64 {
    const RANKS: usize = 64;
    const BLOCK: usize = 1 << 10;
    let model = NetModel::ethernet_10g();
    let send = SplitMix64(seed).bytes(RANKS * BLOCK);
    let world = World::new(model.clone(), Topology::block(RANKS, 8)).with_shards(1);
    let out = world.run(|c| {
        let sc = secure.then(|| {
            SecureComm::new(c, security_config(&model, seed, false)).expect("secure comm")
        });
        c.barrier();
        let t = Instant::now();
        let got = match &sc {
            Some(sc) => sc.alltoall(&send, BLOCK).expect("encrypted alltoall"),
            None => c.alltoall(&send, BLOCK),
        };
        c.barrier();
        assert_eq!(got.len(), send.len());
        t.elapsed().as_nanos() as f64
    });
    out.results[0] / (out.fabric.messages + out.fabric.local_messages) as f64
}

/// Median host nanoseconds, over `rounds`, of a receive that has to
/// pass `fillers` queued unexpected messages before it finds its match.
fn match_ns(fillers: usize, rounds: usize) -> f64 {
    let world = World::flat(NetModel::infiniband_40g(), 2).with_shards(1);
    let out = world.run(|c: &Comm| {
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            if c.rank() == 1 {
                for _ in 0..fillers {
                    c.send(&[0u8; 8], 0, 1);
                }
                c.send(&[1u8; 8], 0, 2);
                c.send(&[2u8; 8], 0, 3);
                let _ = c.recv(Src::Is(0), TagSel::Is(4));
            } else {
                // Messages of one sender arrive in order: once the
                // last is here, everything before it is queued.
                let _ = c.recv(Src::Is(1), TagSel::Is(3));
                let t = Instant::now();
                let _ = c.recv(Src::Is(1), TagSel::Is(2));
                samples.push(t.elapsed().as_nanos() as f64);
                for _ in 0..fillers {
                    let _ = c.recv(Src::Is(1), TagSel::Is(1));
                }
                c.send(&[3u8; 8], 1, 4);
            }
        }
        samples
    });
    median(&out.results[0])
}

/// One pass over every probe.
struct Probes<'a> {
    seed: u64,
    /// Divides every loop count and time budget (`--smoke`).
    shrink: usize,
    /// The CPU set the process started with.
    allowed: &'a [usize],
    rng: SplitMix64,
    out: Values,
}

impl Probes<'_> {
    fn put(&mut self, name: impl Into<String>, v: f64) {
        self.out.push((name.into(), v));
    }

    fn budget(&self) -> Duration {
        BUDGET / self.shrink as u32
    }

    fn scaled(&self, n: usize) -> usize {
        (n / self.shrink).max(1)
    }

    /// Pin the calling thread, and the rank threads it spawns next, to
    /// the first `n` CPUs the process was given.
    fn use_cpus(&self, n: usize) {
        sys::set_affinity(&self.allowed[..self.allowed.len().min(n)]);
    }

    /// Two windows of the multi-pair traffic at 2 MB.
    fn multi_pair(&self, piped: bool) -> Kind {
        Kind::MultiPair {
            size: self.scaled(2 << 20),
            iters: self.scaled(2),
            piped,
        }
    }

    /// One small ad-hoc repetition of `kind`.
    fn rep(&self, kind: Kind, secure: bool, metered: bool, shards: usize) -> Rep {
        let spec = Spec {
            name: "probe",
            why: "",
            kind,
            pinned: shards == 1,
            reference_pct: 0.0,
        };
        let inputs = workloads::make_inputs(&spec, self.seed);
        let opts = RepOpts {
            secure,
            traced: false,
            metered,
            shards,
            shrink: 1,
            spans: None,
        };
        let rep = workloads::run_rep(&spec, &inputs, opts);
        assert_eq!(rep.failed, 0, "probe repetition failed");
        rep
    }

    /// Median host nanoseconds of one op of such a repetition on one
    /// shard, as rank 0 times it.
    fn op_ns(&self, kind: Kind, secure: bool, metered: bool) -> f64 {
        let rep = self.rep(kind, secure, metered, 1);
        median(&rep.op_ns.iter().map(|&ns| ns as f64).collect::<Vec<f64>>())
    }

    fn aead(&mut self) {
        for (lib_name, lib) in LIBS {
            let gcm = lib
                .instantiate(KeySize::Aes256, &HARDCODED_KEY)
                .expect("every profile supports AES-256");
            for (size_name, size) in SIZES {
                let mut buf = self.rng.bytes(size);
                let (seal, open) = seal_open_ns(&gcm, &mut buf, self.budget());
                self.put(
                    format!("aead.seal_gbps.{lib_name}.{size_name}"),
                    size as f64 / seal,
                );
                self.put(
                    format!("aead.open_gbps.{lib_name}.{size_name}"),
                    size as f64 / open,
                );
                if lib == CryptoLibrary::BoringSsl && size == 2 << 20 {
                    let model = lib.enc_time_ns(CompilerBuild::Mvapich23, size) as f64;
                    self.put("aead.model_ratio.boringssl.2m", seal / model);
                }
            }
        }
        let init = ns_per_call(self.budget(), 64, || {
            let key = black_box(&HARDCODED_KEY);
            black_box(CryptoLibrary::BoringSsl.instantiate(KeySize::Aes256, key)).expect("AES-256");
        });
        self.put("aead.init_ns.boringssl", init);
    }

    fn netsim(&mut self) {
        let (per_r2, per_r64) = (self.scaled(5_000), self.scaled(150));
        self.use_cpus(1);
        self.put(
            "netsim.advance_ns.r1",
            handoff_ns(1, 1, self.scaled(200_000)),
        );
        let r2 = handoff_ns(2, 1, per_r2);
        let r64 = handoff_ns(64, 1, per_r64);
        self.put("netsim.handoff_ns.r2", r2);
        self.put("netsim.handoff_ns.r64", r64);
        self.put(
            "netsim.handoff_ns.r1024",
            handoff_ns(1024, 1, self.scaled(10)),
        );
        for (label, n) in [("r64", 64), ("r1024", 1024)] {
            let spawn: Vec<f64> = (0..3).map(|_| engine_run_ns(n, 1, 0)).collect();
            self.put(
                format!("netsim.spawn_us_per_rank.{label}"),
                median(&spawn) / 1e3 / n as f64,
            );
        }
        // What a second shard on a second CPU buys the multi-pair
        // traffic over the best one-shard placement, which is the
        // pinned one: the honest TAB-SCALE cell, per record path.
        for (label, piped) in [("mp_seq", false), ("mp_piped", true)] {
            let kind = self.multi_pair(piped);
            let serial = self.rep(kind, true, false, 1);
            self.use_cpus(2);
            let sharded = self.rep(kind, true, false, 2);
            self.use_cpus(1);
            assert_eq!(
                serial.virt_ns, sharded.virt_ns,
                "virtual time depends on the shards"
            );
            self.put(
                format!("netsim.shard_speedup.{label}"),
                serial.wall_s / sharded.wall_s,
            );
        }
        self.use_cpus(2);
        self.put("netsim.handoff_ns.r64.s2", handoff_ns(64, 2, per_r64));
        // The same serial hand-offs with the threads free to land on
        // any CPU: what crossing cores costs, kept visible as a ratio.
        self.use_cpus(usize::MAX);
        self.put("netsim.xcore_ratio.r2", handoff_ns(2, 1, per_r2) / r2);
        self.put("netsim.xcore_ratio.r64", handoff_ns(64, 1, per_r64) / r64);
        self.use_cpus(1);
    }

    fn mpi_and_core(&mut self) {
        let direct = AesGcm::new(&HARDCODED_KEY).expect("AES-256 key");
        for (label, size, round_trips) in [("256b", 256, 5_000), ("2m", 2 << 20, 24)] {
            let kind = Kind::PingPong {
                size,
                round_trips: self.scaled(round_trips).max(4),
            };
            let plain = self.op_ns(kind, false, false);
            let secure = self.op_ns(kind, true, false);
            let mut buf = SplitMix64(self.seed).bytes(size);
            let (seal, open) = seal_open_ns(&direct, &mut buf, self.budget());
            self.put(format!("mpi.rt_ns.{label}"), plain);
            // A round trip carries two records, each sealed once and
            // opened once; what is left is the record layer's own cost.
            self.put(
                format!("core.record_ns.{label}"),
                (secure - plain) / 2.0 - (seal + open),
            );
            if size == 256 {
                // Alternating pairs, so that a change of the machine's
                // speed between two runs does not pass for overhead.
                let ratios: Vec<f64> = (0..3)
                    .map(|_| self.op_ns(kind, true, true) / self.op_ns(kind, true, false))
                    .collect();
                self.put(
                    "metrics.overhead_pct.pp256",
                    (median(&ratios) - 1.0) * 100.0,
                );
            }
        }
        let window = self.op_ns(self.multi_pair(false), false, false);
        self.put(
            "mpi.window_ns_per_msg.2m",
            window / workloads::MSGS_PER_WINDOW as f64,
        );
        self.put(
            "mpi.alltoall_ns_per_msg.r64.1k",
            alltoall_ns_per_msg(false, self.seed),
        );
        self.put(
            "core.alltoall_ns_per_msg.r64.1k",
            alltoall_ns_per_msg(true, self.seed),
        );
        let rounds = self.scaled(100);
        self.put("mpi.match_ns.q1", match_ns(0, rounds));
        self.put("mpi.match_ns.q64", match_ns(63, rounds));

        let model = NetModel::infiniband_40g();
        let new_ns = World::flat(model.clone(), 2).with_shards(1).run(|c| {
            let cfg = security_config(&model, self.seed, false);
            ns_per_call(self.budget(), 16, || {
                black_box(SecureComm::new(c, cfg.clone())).expect("secure comm");
            })
        });
        self.put("core.new_us", new_ns.results[0] / 1e3);
    }

    fn pipeline_and_pool(&mut self) {
        let cipher = AesGcm::new(&HARDCODED_KEY).expect("AES-256 key");
        let (_, size) = SIZES[2];
        let msg = self.rng.bytes(size);
        let nonce = [0x42u8; NONCE_LEN];
        let seal = ns_per_call(self.budget(), 1, || {
            black_box(empi_pipeline::seal_frames(
                &cipher,
                1,
                nonce,
                black_box(&msg),
                CHUNK,
            ));
        });
        let frames = empi_pipeline::seal_frames(&cipher, 1, nonce, &msg, CHUNK);
        let open = ns_per_call(self.budget(), 1, || {
            let plain =
                empi_pipeline::open_frames(&cipher, black_box(&frames)).expect("own frames");
            assert_eq!(plain.len(), size);
        });
        self.put("pipeline.seal_frames_gbps.2m", size as f64 / seal);
        self.put("pipeline.open_frames_gbps.2m", size as f64 / open);

        // Take a buffer, fill it as the send path does, hand it to the
        // transport, and get it back: the pooled cycle against a pool
        // that has nothing to give.
        for (label, len) in [("16k", 16 << 10), ("2m", size)] {
            let pool = BufferPool::new();
            let cycle = ns_per_call(self.budget(), batch_for(len), || {
                let mut b = pool.take(len);
                b.extend_from_slice(&msg[..len]);
                assert!(pool.reclaim(b.freeze()));
            });
            self.put(format!("pool.take_reclaim_ns.{label}"), cycle);
        }
        let fresh = ns_per_call(self.budget(), 1, || {
            let mut b = BufferPool::new().take(size);
            b.extend_from_slice(&msg);
            black_box(b.freeze());
        });
        self.put("pool.fresh_take_ns.2m", fresh);
    }

    fn keys(&mut self) {
        let kdf = ns_per_call(self.budget(), 256, || {
            black_box(derive_pair_key(black_box(&HARDCODED_KEY), 3, 5));
        });
        self.put("keys.kdf_pair_ns", kdf);
        let model = NetModel::infiniband_40g();
        let (mut host_us, mut virt_us) = (Vec::new(), Vec::new());
        for _ in 0..self.scaled(5) {
            let world = World::flat(model.clone(), 8).with_shards(1);
            let r = world.run(|c| {
                let cfg = security_config(&model, self.seed, false)
                    .with_key_plane(KeyPlaneConfig::new(self.seed));
                c.barrier();
                let (t, v) = (Instant::now(), c.now());
                let sc = SecureComm::new(c, cfg).expect("handshake");
                let virt = (c.now() - v).as_nanos() as f64 / 1e3;
                c.barrier();
                black_box(sc.sealing_epoch());
                (t.elapsed().as_nanos() as f64 / 1e3, virt)
            });
            host_us.push(r.results[0].0);
            virt_us.push(r.results[0].1);
        }
        self.put("keys.handshake_host_us.r8", median(&host_us));
        self.put("keys.handshake_virt_us.r8", median(&virt_us));
    }
}

/// Run every probe, with every loop count and time budget divided by
/// `shrink`. `allowed` is the CPU set the process started with; the
/// calling thread's affinity is left at its first CPU.
pub fn run_all(seed: u64, shrink: usize, allowed: &[usize]) -> Values {
    let mut p = Probes {
        seed,
        shrink: shrink.max(1),
        allowed,
        rng: SplitMix64(seed ^ 0x70_726f_6265),
        out: Values::new(),
    };
    p.use_cpus(1);
    p.aead();
    p.netsim();
    p.mpi_and_core();
    p.pipeline_and_pool();
    p.keys();
    p.out
}
