//! Shared helpers for the shiptlm benchmark harness.
//!
//! The benches themselves live in `benches/`; see `EXPERIMENTS.md` at the
//! repository root for the experiment index. They run on [`minibench`], a
//! small self-contained harness exposing the subset of the `criterion` API
//! the benches use (`benchmark_group`, `bench_function`, `bench_with_input`,
//! `Throughput`, `criterion_group!`/`criterion_main!`), so the workspace
//! builds without network access to crates.io.
pub use shiptlm;

pub mod minibench {
    //! Minimal wall-clock benchmark harness with a `criterion`-shaped API.
    //!
    //! Each benchmark is warmed up for `warm_up_time`, then timed for up to
    //! `measurement_time` or `sample_size` batches, whichever comes first.
    //! Results (mean ns/iter and, when a throughput is declared, MB/s) are
    //! printed to stdout and recorded in a process-wide registry that
    //! [`write_json`] can dump as a machine-readable `BENCH_*.json` artifact.
    //! Setting `MINIBENCH_QUICK=1` shrinks every timing budget to smoke-test
    //! size for CI (see [`quick_mode`]).

    use std::fmt::Display;
    use std::hint;
    use std::io::Write as _;
    use std::path::Path;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    use shiptlm_kernel::json::Quoted;

    /// Opaque value barrier preventing the optimizer from deleting the
    /// benchmarked computation.
    pub fn black_box<T>(v: T) -> T {
        hint::black_box(v)
    }

    /// True when the `MINIBENCH_QUICK` environment variable is set (to any
    /// value other than `0` or the empty string). Quick mode shrinks every
    /// group's timing budget to a smoke-test size so CI can exercise the
    /// bench binaries in seconds; the numbers it produces are not
    /// publication-grade.
    pub fn quick_mode() -> bool {
        match std::env::var("MINIBENCH_QUICK") {
            Ok(v) => !v.is_empty() && v != "0",
            Err(_) => false,
        }
    }

    /// One finished measurement, as recorded by the results registry.
    #[derive(Debug, Clone)]
    pub struct BenchResult {
        /// Group name (`Criterion::benchmark_group` argument).
        pub group: String,
        /// Benchmark id within the group.
        pub id: String,
        /// Mean nanoseconds per iteration.
        pub mean_ns: f64,
        /// Timed iterations behind the mean.
        pub iters: u64,
        /// Derived MB/s (or Melem/s), when a throughput was declared.
        pub throughput: Option<f64>,
    }

    static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

    fn record_result(r: BenchResult) {
        RESULTS.lock().unwrap_or_else(|e| e.into_inner()).push(r);
    }

    /// Snapshot of every result recorded so far in this process.
    pub fn results() -> Vec<BenchResult> {
        RESULTS.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The commit checked out where the bench runs (`git rev-parse HEAD`),
    /// or `unknown` outside a git checkout.
    fn git_rev() -> String {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|rev| rev.trim().to_string())
            .filter(|rev| !rev.is_empty())
            .unwrap_or_else(|| "unknown".into())
    }

    /// Writes every recorded result as a small self-describing JSON document
    /// (no external serializer — the format is flat enough to hand-roll),
    /// headed by the host it ran on: `host_cores`, `quick` and `git_rev`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating or writing `path`.
    pub fn write_json(bench: &str, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{{")?;
        writeln!(f, "  \"bench\": {},", Quoted(bench))?;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        writeln!(f, "  \"host_cores\": {cores},")?;
        writeln!(f, "  \"quick\": {},", quick_mode())?;
        writeln!(f, "  \"git_rev\": {},", Quoted(&git_rev()))?;
        writeln!(f, "  \"results\": [")?;
        let rows = results();
        for (i, r) in rows.iter().enumerate() {
            let tp = match r.throughput {
                Some(t) => format!("{t:.2}"),
                None => "null".to_string(),
            };
            let comma = if i + 1 == rows.len() { "" } else { "," };
            writeln!(
                f,
                "    {{\"group\": {}, \"id\": {}, \"mean_ns\": {:.1}, \"iters\": {}, \"throughput\": {}}}{}",
                Quoted(&r.group),
                Quoted(&r.id),
                r.mean_ns,
                r.iters,
                tp,
                comma
            )?;
        }
        writeln!(f, "  ]")?;
        writeln!(f, "}}")?;
        eprintln!("bench results written to {}", path.display());
        Ok(())
    }

    /// Declared units of work per iteration, used to derive throughput.
    #[derive(Debug, Clone, Copy)]
    pub enum Throughput {
        /// Bytes processed per iteration.
        Bytes(u64),
        /// Logical elements processed per iteration.
        Elements(u64),
    }

    /// A benchmark identifier: `function_name/parameter`.
    #[derive(Debug, Clone)]
    pub struct BenchmarkId {
        id: String,
    }

    impl BenchmarkId {
        /// Builds an id from a function name and a displayed parameter.
        pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
            BenchmarkId {
                id: format!("{}/{}", function.into(), parameter),
            }
        }
    }

    impl From<&str> for BenchmarkId {
        fn from(s: &str) -> Self {
            BenchmarkId { id: s.to_string() }
        }
    }

    /// Per-iteration timer handed to benchmark closures.
    #[derive(Debug)]
    pub struct Bencher {
        warm_up: Duration,
        measurement: Duration,
        samples: usize,
        /// Mean nanoseconds per iteration, filled in by `iter`.
        mean_ns: f64,
        iters: u64,
    }

    impl Bencher {
        /// Times `f` repeatedly and records the mean cost per call.
        pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
            // Warm-up: run untimed until the warm-up budget is spent.
            let start = Instant::now();
            while start.elapsed() < self.warm_up {
                black_box(f());
            }
            // Measure: time batches until the measurement budget or the
            // sample count is exhausted.
            let mut total = Duration::ZERO;
            let mut iters: u64 = 0;
            for _ in 0..self.samples {
                let t0 = Instant::now();
                black_box(f());
                total += t0.elapsed();
                iters += 1;
                if total >= self.measurement {
                    break;
                }
            }
            self.iters = iters.max(1);
            self.mean_ns = total.as_nanos() as f64 / self.iters as f64;
        }
    }

    /// A named group of benchmarks sharing timing configuration.
    ///
    /// Under [`quick_mode`] the timing setters become no-ops: the group keeps
    /// its smoke-test budget no matter what the bench asks for, so CI runs
    /// finish fast without editing each bench.
    #[derive(Debug)]
    pub struct BenchmarkGroup {
        name: String,
        sample_size: usize,
        warm_up: Duration,
        measurement: Duration,
        throughput: Option<Throughput>,
        quick: bool,
    }

    impl BenchmarkGroup {
        /// Sets how many timed samples to collect per benchmark.
        pub fn sample_size(&mut self, n: usize) -> &mut Self {
            if !self.quick {
                self.sample_size = n.max(1);
            }
            self
        }

        /// Sets the untimed warm-up budget.
        pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
            if !self.quick {
                self.warm_up = d;
            }
            self
        }

        /// Sets the timed measurement budget.
        pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
            if !self.quick {
                self.measurement = d;
            }
            self
        }

        /// Declares per-iteration throughput for subsequent benchmarks.
        pub fn throughput(&mut self, t: Throughput) -> &mut Self {
            self.throughput = Some(t);
            self
        }

        /// Runs one benchmark under this group's configuration.
        pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
        where
            F: FnMut(&mut Bencher),
        {
            let id = id.into();
            let mut b = Bencher {
                warm_up: self.warm_up,
                measurement: self.measurement,
                samples: self.sample_size,
                mean_ns: 0.0,
                iters: 0,
            };
            f(&mut b);
            self.report(&id.id, &b);
            self
        }

        /// Runs one parameterized benchmark.
        pub fn bench_with_input<I: ?Sized, F>(
            &mut self,
            id: BenchmarkId,
            input: &I,
            mut f: F,
        ) -> &mut Self
        where
            F: FnMut(&mut Bencher, &I),
        {
            let mut b = Bencher {
                warm_up: self.warm_up,
                measurement: self.measurement,
                samples: self.sample_size,
                mean_ns: 0.0,
                iters: 0,
            };
            f(&mut b, input);
            self.report(&id.id, &b);
            self
        }

        fn report(&self, id: &str, b: &Bencher) {
            let mut line = format!(
                "{}/{:<40} {:>14.1} ns/iter ({} iters)",
                self.name, id, b.mean_ns, b.iters
            );
            let mut rate = None;
            if let Some(tp) = self.throughput {
                let (per_iter, unit) = match tp {
                    Throughput::Bytes(n) => (n as f64, "MB/s"),
                    Throughput::Elements(n) => (n as f64, "Melem/s"),
                };
                if b.mean_ns > 0.0 {
                    let r = per_iter * 1e3 / b.mean_ns;
                    line += &format!("  {r:>10.2} {unit}");
                    rate = Some(r);
                }
            }
            println!("{line}");
            record_result(BenchResult {
                group: self.name.clone(),
                id: id.to_string(),
                mean_ns: b.mean_ns,
                iters: b.iters,
                throughput: rate,
            });
        }

        /// Ends the group (kept for criterion API parity).
        pub fn finish(&mut self) {}
    }

    /// Top-level harness handle passed to each benchmark function.
    #[derive(Debug, Default)]
    pub struct Criterion {
        _private: (),
    }

    impl Criterion {
        /// Opens a named benchmark group with default timing settings
        /// (smoke-test settings under [`quick_mode`]).
        pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
            let quick = quick_mode();
            let (sample_size, warm_up, measurement) = if quick {
                (3, Duration::from_millis(10), Duration::from_millis(50))
            } else {
                (20, Duration::from_millis(200), Duration::from_secs(1))
            };
            BenchmarkGroup {
                name: name.into(),
                sample_size,
                warm_up,
                measurement,
                throughput: None,
                quick,
            }
        }

        /// Runs an ungrouped benchmark with default settings.
        pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
        where
            F: FnMut(&mut Bencher),
        {
            self.benchmark_group("bench").bench_function(id, f);
            self
        }
    }

    /// Bundles benchmark functions into a single runner, mirroring
    /// `criterion_group!`.
    #[macro_export]
    macro_rules! criterion_group {
        ($name:ident, $($target:path),+ $(,)?) => {
            fn $name() {
                let mut c = $crate::minibench::Criterion::default();
                $($target(&mut c);)+
            }
        };
    }

    /// Emits `main`, mirroring `criterion_main!`.
    #[macro_export]
    macro_rules! criterion_main {
        ($($group:ident),+ $(,)?) => {
            fn main() {
                $($group();)+
            }
        };
    }

    pub use crate::{criterion_group, criterion_main};
}

#[cfg(test)]
mod tests {
    use super::minibench::*;
    use std::time::Duration;

    #[test]
    fn minibench_measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        g.throughput(Throughput::Bytes(1024));
        g.bench_function("sum", |b| {
            b.iter(|| (0..1000u64).sum::<u64>());
        });
        g.bench_with_input(BenchmarkId::new("sized", 7), &7u32, |b, &n| {
            b.iter(|| n * 2);
        });
        g.finish();

        let recorded = results();
        assert!(recorded.iter().any(|r| r.group == "t" && r.id == "sum"));
        let sum = recorded.iter().find(|r| r.id == "sum").unwrap();
        assert!(sum.mean_ns > 0.0 && sum.iters >= 1);
        assert!(
            sum.throughput.is_some(),
            "Bytes throughput should derive MB/s"
        );
    }

    #[test]
    fn json_output_is_well_formed() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("json");
        g.sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        g.bench_function("noop", |b| b.iter(|| 1u32 + 1));
        g.finish();

        let dir = std::env::temp_dir().join("shiptlm-minibench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_json("unit-test", &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bench\": \"unit-test\""));
        assert!(text.contains("\"host_cores\": "));
        assert!(text.contains("\"git_rev\": \""));
        assert!(text.contains("\"group\": \"json\""));
        assert!(text.contains("\"id\": \"noop\""));
        // Flat sanity checks on JSON shape: balanced braces/brackets, no
        // trailing comma before the closing bracket.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        assert!(!text.contains(",\n  ]"));
        std::fs::remove_file(&path).ok();
    }
}
