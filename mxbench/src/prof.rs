//! Spans recorded from outside the program, around calls into each
//! layer's public functions: wall time, process CPU time and bytes
//! allocated per span, kept in memory and written out as a Chrome trace
//! when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;

/// Process CPU seconds (user + system, all threads, exited ones
/// included) from `/proc/self/stat`, in clock ticks of 1/100 s.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak RSS of this process to its current RSS (writing 5 to
/// `/proc/self/clear_refs`), so that the next [`peak_rss_mb`] reads the
/// peak of the work in between. False if the kernel refused.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand the heap's free pages back to the kernel, so memory that set-up
/// freed does not stay resident under the measured calls. Done once per
/// run, not per call: trimming before every call would make each call
/// fault its pages in afresh.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and may be called at
    // any time; it only releases free memory of the malloc arenas.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Seconds since the recorder's origin.
    pub start: f64,
    pub end: f64,
    pub cpu_s: f64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn wall(&self) -> f64 {
        self.end - self.start
    }
}

struct Open {
    id: usize,
    cpu0: f64,
    alloc0: u64,
}

/// Span recorder: a stack of open spans and the list of every span.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().map(|o| o.id);
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end: start,
            cpu_s: 0.0,
            alloc_bytes: 0,
        });
        self.stack.push(Open {
            id,
            cpu0: cpu_s(),
            alloc0: alloc::allocated(),
        });
        id
    }

    /// Close the innermost open span; returns its wall seconds.
    pub fn close(&mut self) -> f64 {
        let Some(o) = self.stack.pop() else {
            return 0.0;
        };
        let end = self.now();
        let cpu = cpu_s() - o.cpu0;
        let bytes = alloc::allocated().saturating_sub(o.alloc0);
        let s = &mut self.spans[o.id];
        s.end = end;
        s.cpu_s = cpu;
        s.alloc_bytes = bytes;
        s.wall()
    }

    /// Time `f` under a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name under `root` (inclusive of `root` itself): summed
    /// wall, CPU and allocated bytes.
    pub fn totals_under(&self, root: usize) -> BTreeMap<String, Totals> {
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.descends(i, root) {
                let t = out.entry(s.name.clone()).or_default();
                t.wall += s.wall();
                t.cpu += s.cpu_s;
                t.alloc_bytes += s.alloc_bytes;
            }
        }
        out
    }

    /// Summed figures of every span named `name`.
    pub fn totals_named(&self, name: &str) -> Totals {
        let mut t = Totals::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.wall += s.wall();
            t.cpu += s.cpu_s;
            t.alloc_bytes += s.alloc_bytes;
        }
        t
    }

    /// Summed wall of the direct children of `root`.
    pub fn children_wall(&self, root: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::wall)
            .sum()
    }

    fn descends(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// The spans as a Chrome Trace Event Format document, stamped with
    /// `meta` as `otherData`.
    pub fn chrome_trace(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
        }
        out.push_str("},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"cpu_s\":{:.2},\"alloc_bytes\":{}}}}}",
                json_str(&s.name),
                s.start * 1e6,
                s.wall() * 1e6,
                s.cpu_s,
                s.alloc_bytes
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Summed figures of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub wall: f64,
    pub cpu: f64,
    pub alloc_bytes: u64,
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
