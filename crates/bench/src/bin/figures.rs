//! Regenerates the CLAN paper's tables and figures, plus the
//! reproduction's ablation studies: all of them with no argument, or
//! only those named (`figures fig9 table4`). An unknown name exits 2.
use clan_bench::{Experiment, OutputSink, EXPERIMENTS};

fn main() -> std::io::Result<()> {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&names).unwrap_or_else(|err| {
        eprintln!("figures: {err}");
        std::process::exit(2)
    });
    let sink = OutputSink::default_dir()?;
    for (_, title, run) in experiments {
        eprintln!(">>> {title}");
        run(&sink)?;
    }
    eprintln!(">>> done; CSVs in {}", sink.results_dir().display());
    Ok(())
}

/// The experiments `names` select, in the order given; every experiment
/// when `names` is empty.
///
/// # Errors
///
/// An unknown name, with the valid names listed.
fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            EXPERIMENTS
                .into_iter()
                .find(|e| e.0 == name)
                .ok_or_else(|| format!("unknown experiment `{name}`; valid: {}", valid.join(" ")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_selects_exactly_one_experiment() {
        for (name, title, _) in EXPERIMENTS {
            assert_eq!(EXPERIMENTS.iter().filter(|e| e.0 == name).count(), 1);
            let picked = select(&[name]).unwrap();
            assert_eq!(picked.len(), 1);
            assert_eq!((picked[0].0, picked[0].1), (name, title));
        }
    }

    #[test]
    fn no_argument_runs_everything_in_paper_order() {
        let order: Vec<&str> = select::<&str>(&[]).unwrap().iter().map(|e| e.1).collect();
        assert_eq!(
            order,
            [
                "Table IV",
                "Figure 3",
                "Figure 4",
                "Figure 5",
                "Figure 6",
                "Figure 7",
                "Figure 8",
                "Figure 9",
                "Figure 10",
                "Figure 11",
                "Ablations",
            ]
        );
    }

    #[test]
    fn unknown_name_is_an_error_listing_valid_names() {
        let err = select(&["fig9", "nosuch"]).unwrap_err();
        assert!(err.contains("`nosuch`"), "{err}");
        for (name, _, _) in EXPERIMENTS {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }
}
