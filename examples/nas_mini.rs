//! Run one NAS kernel on plain vs encrypted MPI and print a miniature
//! Table-IV-style comparison.
//!
//! ```bash
//! cargo run --release --example nas_mini [cg|ft|mg|lu|bt|sp|is]
//! ```

use empi::aead::CryptoLibrary;
use empi::mpi::World;
use empi::nas::adi::{self, AdiKind};
use empi::nas::{cg, ft, is, lu, mg, Class, CommLayer, Kernel, PlainLayer, SecureLayer};
use empi::netsim::{NetModel, Topology};
use empi::secure::SecurityConfig;

fn run_kernel(kernel: Kernel, lib: Option<CryptoLibrary>) -> (f64, bool) {
    let world = World::new(NetModel::infiniband_40g(), Topology::block(8, 4));
    let out = world.run(|c| {
        let plain;
        let secure;
        let layer: &dyn CommLayer = match lib {
            None => {
                plain = PlainLayer::new(c);
                &plain
            }
            Some(l) => {
                secure = SecureLayer::new(c, SecurityConfig::new(l));
                &secure
            }
        };
        c.barrier();
        let t0 = c.now();
        let report = match kernel {
            Kernel::CG => cg::run(&layer, Class::S),
            Kernel::FT => ft::run(&layer, Class::S),
            Kernel::MG => mg::run(&layer, Class::S),
            Kernel::LU => lu::run(&layer, Class::S),
            Kernel::BT => adi::run(&layer, Class::S, AdiKind::Bt),
            Kernel::SP => adi::run(&layer, Class::S, AdiKind::Sp),
            Kernel::IS => is::run(&layer, Class::S),
        };
        c.barrier();
        ((c.now() - t0).as_micros_f64(), report.verified)
    });
    let worst = out.results.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
    (worst, out.results.iter().all(|(_, v)| *v))
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "ft".into());
    let kernel = match arg.to_lowercase().as_str() {
        "cg" => Kernel::CG,
        "ft" => Kernel::FT,
        "mg" => Kernel::MG,
        "lu" => Kernel::LU,
        "bt" => Kernel::BT,
        "sp" => Kernel::SP,
        "is" => Kernel::IS,
        other => {
            eprintln!("unknown kernel '{other}' (cg|ft|mg|lu|bt|sp|is)");
            std::process::exit(1);
        }
    };
    println!(
        "NAS {} (class S), 8 ranks / 4 nodes, simulated 40Gb InfiniBand:\n",
        kernel.name()
    );
    let (base, ok) = run_kernel(kernel, None);
    assert!(ok, "baseline verification failed");
    println!("  {:<12} {:10.1} us  (verified)", "Unencrypted", base);
    for lib in [
        CryptoLibrary::BoringSsl,
        CryptoLibrary::Libsodium,
        CryptoLibrary::CryptoPp,
    ] {
        let (t, ok) = run_kernel(kernel, Some(lib));
        assert!(
            ok,
            "{} verification failed under {}",
            kernel.name(),
            lib.name()
        );
        println!(
            "  {:<12} {:10.1} us  (+{:.1}%)",
            lib.name(),
            t,
            (t / base - 1.0) * 100.0
        );
    }
}
