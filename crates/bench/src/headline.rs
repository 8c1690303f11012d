//! Headline-claims check: every number the paper quotes in its prose,
//! measured by this reproduction, with a shape verdict.
//!
//! ```bash
//! cargo run --release -p empi-bench -- headline         # fast set
//! cargo run --release -p empi-bench -- headline --nas   # + NAS aggregates (slow)
//! ```

use std::process::ExitCode;

use empi_aead::profile::CryptoLibrary;
use empi_core::SecurityConfig;
use empi_nas::{Class, Kernel};

use crate::common::{BenchOpts, Net};
use crate::multipair::multipair_run;
use crate::nasbench::nas_run;
use crate::pingpong::pingpong_run;
use crate::stats::{overhead_percent_of_mbs as overhead, overhead_percent_of_totals};

struct Claim {
    what: &'static str,
    paper: f64,
    ours: f64,
    tol_rel: f64,
}

impl Claim {
    fn verdict(&self) -> &'static str {
        let err = (self.ours - self.paper).abs() / self.paper.abs().max(1e-9);
        if err <= self.tol_rel {
            "OK"
        } else {
            "DIVERGES"
        }
    }
}

/// The `headline` subcommand: `--nas` adds the NAS aggregates, and
/// `--shards` is the one shared flag it reads (the dispatcher refuses
/// the others, so `--quick` cannot silently run the full set).
pub fn run(mut args: Vec<String>) -> ExitCode {
    let with_nas = args.iter().any(|a| a == "--nas");
    args.retain(|a| a != "--nas");
    let shards = BenchOpts::parse(args.into_iter()).shards;
    let pingpong_mbs = |net, lib: Option<CryptoLibrary>, size, iters| {
        let cfg = lib.map(SecurityConfig::new);
        pingpong_run(net, cfg, size, iters, false, shards).value
    };
    let multipair_mbs = |net, lib: Option<CryptoLibrary>, size, pairs, iters| {
        let cfg = lib.map(SecurityConfig::new);
        multipair_run(net, cfg, size, pairs, iters, false, shards).value
    };
    let mut claims = Vec::new();
    let boring = Some(CryptoLibrary::BoringSsl);
    let cpp = Some(CryptoLibrary::CryptoPp);

    println!("measuring ping-pong claims...");
    {
        let base = pingpong_mbs(Net::Ethernet, None, 256, 100);
        let enc = pingpong_mbs(Net::Ethernet, boring, 256, 100);
        claims.push(Claim {
            what: "Ethernet 256B ping-pong BoringSSL overhead % (paper 5.9)",
            paper: 5.9,
            ours: overhead(base, enc),
            tol_rel: 1.5,
        });
    }
    {
        let base = pingpong_mbs(Net::Ethernet, None, 2 << 20, 30);
        let enc = pingpong_mbs(Net::Ethernet, boring, 2 << 20, 30);
        claims.push(Claim {
            what: "Ethernet 2MB ping-pong BoringSSL overhead % (paper 78.3)",
            paper: 78.3,
            ours: overhead(base, enc),
            tol_rel: 0.25,
        });
        let enc_cpp = pingpong_mbs(Net::Ethernet, cpp, 2 << 20, 30);
        claims.push(Claim {
            what: "Ethernet 2MB ping-pong CryptoPP overhead % (paper ~400)",
            paper: 400.0,
            ours: overhead(base, enc_cpp),
            tol_rel: 0.25,
        });
    }
    {
        let base = pingpong_mbs(Net::Infiniband, None, 256, 100);
        let enc = pingpong_mbs(Net::Infiniband, boring, 256, 100);
        claims.push(Claim {
            what: "IB 256B ping-pong BoringSSL overhead % (paper 80.9)",
            paper: 80.9,
            ours: overhead(base, enc),
            tol_rel: 0.25,
        });
        let base2 = pingpong_mbs(Net::Infiniband, None, 2 << 20, 30);
        let enc2 = pingpong_mbs(Net::Infiniband, boring, 2 << 20, 30);
        claims.push(Claim {
            what: "IB 2MB ping-pong BoringSSL overhead % (paper 215.2)",
            paper: 215.2,
            ours: overhead(base2, enc2),
            tol_rel: 0.15,
        });
    }

    println!("measuring multi-pair claims...");
    {
        let base = multipair_mbs(Net::Ethernet, None, 16 << 10, 8, 15);
        let enc = multipair_mbs(Net::Ethernet, cpp, 16 << 10, 8, 15);
        claims.push(Claim {
            what: "Ethernet 16KB 8-pair: CryptoPP/baseline ratio (paper ~1.0)",
            paper: 1.0,
            ours: enc / base,
            tol_rel: 0.15,
        });
        let b4 = multipair_mbs(Net::Infiniband, None, 1, 4, 15);
        let b8 = multipair_mbs(Net::Infiniband, None, 1, 8, 15);
        claims.push(Claim {
            what: "IB 1B baseline throttles 4->8 pairs: ratio b8/b4 < 1 (paper <1)",
            paper: 0.75,
            ours: b8 / b4,
            tol_rel: 0.35,
        });
    }

    if with_nas {
        println!("measuring NAS aggregates (this takes several minutes)...");
        for (net, paper_oh, label) in [
            (
                Net::Ethernet,
                12.75,
                "Ethernet NAS BoringSSL aggregate overhead % (paper 12.75)",
            ),
            (
                Net::Infiniband,
                17.93,
                "IB NAS BoringSSL aggregate overhead % (paper 17.93)",
            ),
        ] {
            let mut base = Vec::new();
            let mut enc = Vec::new();
            for k in Kernel::ALL {
                let secs = |lib: Option<CryptoLibrary>| {
                    let cfg = lib.map(SecurityConfig::new);
                    nas_run(net, cfg, k, Class::MiniC, 64, 8, false, shards)
                        .value
                        .0
                };
                base.push(secs(None));
                enc.push(secs(boring));
            }
            claims.push(Claim {
                what: label,
                paper: paper_oh,
                ours: overhead_percent_of_totals(&base, &enc),
                tol_rel: 0.45,
            });
        }
    }

    println!();
    println!("{:<68} {:>9} {:>9}  verdict", "claim", "paper", "ours");
    println!("{}", "-".repeat(100));
    let mut diverges = 0;
    for c in &claims {
        println!(
            "{:<68} {:>9.2} {:>9.2}  {}",
            c.what,
            c.paper,
            c.ours,
            c.verdict()
        );
        if c.verdict() != "OK" {
            diverges += 1;
        }
    }
    println!();
    if diverges == 0 {
        println!("all headline claims reproduced within tolerance");
    } else {
        println!("{diverges} claim(s) outside tolerance — see DESIGN.md §8 for known deviations");
    }
    ExitCode::SUCCESS
}
