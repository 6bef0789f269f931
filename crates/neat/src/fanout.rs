//! Order-preserving fan-out of pure per-item work over the caller's cores.
//!
//! The coordinator's serial sections — seeding a population, breeding a
//! generation, hashing one before the scatter — map a pure function over
//! independent items while every agent waits. [`fan_out`] runs it on
//! scoped threads, a contiguous slice each (the caller takes the first),
//! concatenated in input order: the serial map's output at any worker
//! count, which is derived (cores, [`GENE_FLOOR`]), never configured.

/// Genes of work (≈ 1–3 ms of seeding, breeding or hashing) a worker must
/// have to repay its thread spawn — a price, hence a constant, not a knob.
/// Below two floors (a LunarLander population: 5–9 k genes) none is spawned.
pub const GENE_FLOOR: u64 = 32_768;

/// Workers — the calling thread included — that `genes` of work repays;
/// the core count is only asked once the work clears the floor.
pub fn workers(genes: u64) -> usize {
    let cores = || std::thread::available_parallelism().map_or(1, usize::from);
    workers_of(genes, cores)
}

fn workers_of(genes: u64, cores: impl FnOnce() -> usize) -> usize {
    match usize::try_from(genes / GENE_FLOOR).unwrap_or(usize::MAX) {
        0 | 1 => 1,
        by_work => by_work.min(cores()).max(1),
    }
}

/// Maps `f` over `items` (about `genes` genes of work), in input order,
/// on the cores that justifies; a panic in `f` resumes on the caller.
pub fn fan_out<T: Sync, R: Send>(items: &[T], genes: u64, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    fan_out_over(workers(genes), items, f)
}

/// [`fan_out`] at an explicit worker count (`<= 1` spawns nothing).
pub(crate) fn fan_out_over<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let mut slices = items.chunks(items.len().div_ceil(workers.max(1)).max(1));
    let own = slices.next().unwrap_or_default();
    std::thread::scope(|s| {
        let map = |slice: &[T]| slice.iter().map(&f).collect::<Vec<R>>();
        let spawned: Vec<_> = slices.map(|slice| s.spawn(move || map(slice))).collect();
        let mut out = map(own);
        for worker in spawned {
            match worker.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..17).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [0, 1, 2, 3, 8, 17, 40] {
            assert_eq!(
                fan_out_over(workers, &items, |x| x * x + 1),
                serial,
                "{workers}"
            );
        }
        assert_eq!(fan_out_over(4, &[] as &[u64], |x| *x), Vec::<u64>::new());
        assert_eq!(fan_out_over(4, &[7u64], |x| x + 1), vec![8]);
        assert_eq!(fan_out(&items, u64::MAX, |x| x * x + 1), serial);
    }

    #[test]
    fn work_below_the_floor_or_one_core_spawns_nothing() {
        // One worker is the calling thread: zero threads spawned, and
        // below the floor the OS is not even asked for its core count.
        let no_cores = || -> usize { panic!("core count queried below the floor") };
        assert_eq!(workers_of(0, no_cores), 1);
        assert_eq!(workers_of(2 * GENE_FLOOR - 1, no_cores), 1);
        assert_eq!(workers_of(2 * GENE_FLOOR, || 8), 2);
        assert_eq!(workers_of(10 * GENE_FLOOR, || 1), 1);
        assert_eq!(workers_of(10 * GENE_FLOOR, || 0), 1);
        assert_eq!(workers_of(10 * GENE_FLOOR, || 4), 4);
        assert_eq!(workers_of(u64::MAX, || 64), 64);
        // The calling thread is the only one that ever runs `f` there.
        let caller = std::thread::current().id();
        let ran_on = fan_out(&[1, 2, 3], 2 * GENE_FLOOR - 1, |_| {
            std::thread::current().id()
        });
        assert_eq!(ran_on, vec![caller; 3]);
    }

    #[test]
    #[should_panic(expected = "item 5 is cursed")]
    fn a_panicking_closure_propagates_its_own_message() {
        let items: Vec<u64> = (0..8).collect();
        fan_out_over(4, &items, |x| {
            assert!(*x != 5, "item {x} is cursed");
            *x
        });
    }
}
