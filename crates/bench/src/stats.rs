//! How cells become overheads. The paper (§V) repeats each experiment
//! until the standard deviation is within 5 % of the mean, because its
//! testbed is noisy. A table cell here is a virtual-time result: every
//! run of a runner prints the same bits, so one run is the exact cell
//! and there is nothing to repeat (`a_cell_is_one_exact_run` in
//! `lib.rs` holds the harnesses to that). What stays is the paper's
//! aggregation: overheads are ratios of totals, not averages of ratios
//! (Fleming–Wallace; the paper's footnote 2).

/// Aggregate overhead of `encrypted` vs `baseline` totals, in percent —
/// ratio of totals per Fleming–Wallace, as the paper computes its NAS
/// overheads.
pub fn overhead_percent_of_totals(baseline: &[f64], encrypted: &[f64]) -> f64 {
    let b: f64 = baseline.iter().sum();
    let e: f64 = encrypted.iter().sum();
    (e / b - 1.0) * 100.0
}

/// Percentage overhead of a single pair of times.
pub fn overhead_percent(baseline: f64, encrypted: f64) -> f64 {
    (encrypted / baseline - 1.0) * 100.0
}

/// The same overhead from a pair of throughputs (`base/enc − 1`): equal
/// to [`overhead_percent`] on paper, not in floating point, so each
/// table stays on the form it was recorded with.
pub fn overhead_percent_of_mbs(base_mbs: f64, enc_mbs: f64) -> f64 {
    (base_mbs / enc_mbs - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::collective_run;
    use crate::common::Net;
    use crate::frame::{Coll, Run};
    use crate::inflight::{config as inflight_config, inflight_run};
    use crate::multipair::multipair_run;
    use crate::multipair_pipe::Variant;
    use crate::pingpong::pingpong_run;
    use crate::pipeline_nb::nb_run;
    use empi_aead::profile::CryptoLibrary;
    use empi_core::PipelineConfig;
    use empi_core::SecurityConfig;

    #[test]
    fn a_cell_is_one_exact_run() {
        // Every table cell is one call of its runner. That holds only if
        // a runner's value is a function of its arguments: called twice,
        // it must give the same bits, so nothing host-timed (a clock
        // read, a host-speed-dependent schedule) reaches a cell.
        let net = Net::Ethernet;
        let boring = SecurityConfig::new(CryptoLibrary::BoringSsl);
        let piped = boring
            .clone()
            .with_pipeline(PipelineConfig::enabled().with_workers(4));
        let configs = [
            ("baseline", None),
            ("BoringSSL", Some(boring)),
            ("BoringSSL piped", Some(piped)),
        ];
        let exact = |what: &str, run: &dyn Fn() -> Run| {
            let (a, b) = (run().value, run().value);
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} then {b}");
            assert!(a > 0.0, "{what}: {a}");
        };
        let size = 80 << 10;
        for (label, cfg) in &configs {
            let what = |runner: &str| format!("{runner} {label}");
            exact(&what("pingpong_run"), &|| {
                pingpong_run(net, cfg.clone(), size, 1, false, 1)
            });
            exact(&what("nb_run"), &|| {
                nb_run(net, cfg.clone(), size, 1, false, 1)
            });
            exact(&what("collective_run"), &|| {
                collective_run(net, cfg.clone(), Coll::Alltoall, size, 4, 2, 1, false, 1)
            });
        }
        // The multipair and multipair_pipe cells: the baseline, then
        // BoringSSL serial and piped.
        exact("multipair_run baseline", &|| {
            multipair_run(net, None, size, 1, 1, false, 1)
        });
        for v in [Variant::Serial, Variant::Piped] {
            let cfg = Some(v.config(CryptoLibrary::BoringSsl));
            exact(&format!("multipair_run {v:?}"), &|| {
                multipair_run(net, cfg.clone(), size, 1, 1, false, 1)
            });
        }
        for (piped, chaos) in [(false, false), (true, false), (true, true)] {
            let cfg = Some(inflight_config(CryptoLibrary::BoringSsl, piped, chaos, 4));
            exact(
                &format!("inflight_run piped={piped} chaos={chaos}"),
                &|| inflight_run(net, cfg.clone(), 4, 6, false, 1),
            );
        }

        // The carrier count moves wall-clock only: the pipelined
        // multi-pair cell, whose chunk crypto spreads over idle carriers,
        // reads the same bits on one carrier and on two.
        let cfg = Some(Variant::Piped.config(CryptoLibrary::BoringSsl));
        let run = |s| multipair_run(net, cfg.clone(), size, 1, 1, false, s).value;
        assert_eq!(
            run(1).to_bits(),
            run(2).to_bits(),
            "multipair_run at 1 and 2 carriers"
        );
    }

    #[test]
    fn fleming_wallace_totals() {
        // Ratio of totals, not average of ratios: the classic example
        // where the two disagree.
        let base = [1.0, 100.0];
        let enc = [2.0, 110.0];
        let oh = overhead_percent_of_totals(&base, &enc);
        assert!((oh - 10.89).abs() < 0.01, "got {oh}");
        // Average of ratios would claim (100% + 10%)/2 = 55%.
    }

    #[test]
    fn single_overhead() {
        assert!((overhead_percent(100.0, 178.3) - 78.3).abs() < 1e-9);
    }
}
