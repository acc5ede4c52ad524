//! Seeded gmond report generator.
//!
//! Each [`ClusterGen`] holds one cluster's current readings and renders
//! the next round's report on demand, so a run never holds more than one
//! round of input. A `churn` share of the hosts changes every round: the
//! changed hosts are drawn afresh each round from the seeded stream, get
//! new readings and a new `REPORTED` stamp; every other host renders
//! byte-identically to the previous round (frozen timestamps), which is
//! what lets the ingest path reuse it. Readings are quarter units, so
//! summary sums stay exact in binary floating point.

use std::fmt::Write;

/// splitmix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A derived, independent stream.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }
}

/// One gmond metric: name, type, units, and the range its readings walk
/// in (in quarter units).
struct MetricShape {
    name: &'static str,
    ty: &'static str,
    units: &'static str,
    max_quarters: u32,
}

const fn shape(
    name: &'static str,
    ty: &'static str,
    units: &'static str,
    max_quarters: u32,
) -> MetricShape {
    MetricShape {
        name,
        ty,
        units,
        max_quarters,
    }
}

/// The 24 gmond built-ins a report carries per host.
const METRICS: [MetricShape; 24] = [
    shape("load_one", "float", "", 64 * 4),
    shape("load_five", "float", "", 64 * 4),
    shape("load_fifteen", "float", "", 64 * 4),
    shape("cpu_user", "float", "%", 100 * 4),
    shape("cpu_system", "float", "%", 100 * 4),
    shape("cpu_idle", "float", "%", 100 * 4),
    shape("cpu_nice", "float", "%", 100 * 4),
    shape("cpu_wio", "float", "%", 100 * 4),
    shape("cpu_aidle", "float", "%", 100 * 4),
    shape("cpu_num", "uint16", "CPUs", 64),
    shape("cpu_speed", "uint32", "MHz", 4000),
    shape("mem_total", "uint32", "KB", 1 << 24),
    shape("mem_free", "uint32", "KB", 1 << 24),
    shape("mem_shared", "uint32", "KB", 1 << 20),
    shape("mem_buffers", "uint32", "KB", 1 << 22),
    shape("mem_cached", "uint32", "KB", 1 << 23),
    shape("swap_total", "uint32", "KB", 1 << 22),
    shape("swap_free", "uint32", "KB", 1 << 22),
    shape("bytes_in", "float", "bytes/sec", 1 << 22),
    shape("bytes_out", "float", "bytes/sec", 1 << 22),
    shape("pkts_in", "float", "packets/sec", 1 << 20),
    shape("pkts_out", "float", "packets/sec", 1 << 20),
    shape("proc_run", "uint32", "", 256),
    shape("proc_total", "uint32", "", 4096),
];

/// Metrics a changed host re-reads: the fast-moving ones.
const CHURNED: [usize; 6] = [0, 1, 3, 5, 12, 18];

/// Metrics per host in every generated report.
pub const METRICS_PER_HOST: usize = METRICS.len();

/// Name of host `h` of cluster `cluster`.
pub fn host_name(cluster: &str, h: usize) -> String {
    format!("{cluster}-h{h:03}")
}

/// One cluster's evolving report.
pub struct ClusterGen {
    name: String,
    index: usize,
    churn_hosts: usize,
    /// `[host][metric]` readings in quarter units.
    readings: Vec<[u32; METRICS_PER_HOST]>,
    reported: Vec<u64>,
    /// Each host's rendered `<HOST>` element; only changed hosts are
    /// re-rendered.
    host_xml: Vec<String>,
    rng: Rng,
    /// Scratch for drawing the churned hosts without replacement.
    order: Vec<usize>,
}

impl ClusterGen {
    /// A cluster of `hosts` hosts; `churn` is the share of hosts that
    /// change every round after the first.
    pub fn new(name: &str, index: usize, hosts: usize, churn: f64, rng: &mut Rng) -> ClusterGen {
        let mut rng = rng.fork(index as u64);
        let readings = (0..hosts)
            .map(|_| {
                let mut row = [0u32; METRICS_PER_HOST];
                for (value, metric) in row.iter_mut().zip(&METRICS) {
                    *value = rng.below(u64::from(metric.max_quarters)) as u32;
                }
                row
            })
            .collect();
        ClusterGen {
            name: name.to_string(),
            index,
            churn_hosts: ((hosts as f64) * churn).round() as usize,
            readings,
            reported: vec![0; hosts],
            host_xml: vec![String::new(); hosts],
            rng,
            order: (0..hosts).collect(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn hosts(&self) -> usize {
        self.readings.len()
    }

    /// Advance to logical time `now` and render the report into `out`.
    /// The first call renders every host as new.
    pub fn next_report(&mut self, now: u64, out: &mut String) {
        let first = self.reported.iter().all(|&r| r == 0);
        if first {
            self.reported.iter_mut().for_each(|r| *r = now);
            for h in 0..self.readings.len() {
                self.render_host(h);
            }
        } else {
            self.churn(now);
        }
        out.clear();
        let _ = write!(
            out,
            "<?xml version=\"1.0\" encoding=\"ISO-8859-1\" standalone=\"yes\"?>\n\
             <GANGLIA_XML VERSION=\"2.5.7\" SOURCE=\"gmond\">\n\
             <CLUSTER NAME=\"{}\" LOCALTIME=\"{now}\" OWNER=\"bench\" LATLONG=\"\" URL=\"\">\n",
            self.name
        );
        for host in &self.host_xml {
            out.push_str(host);
        }
        out.push_str("</CLUSTER>\n</GANGLIA_XML>\n");
    }

    fn churn(&mut self, now: u64) {
        let hosts = self.order.len();
        // Partial Fisher-Yates: the first `churn_hosts` slots become a
        // fresh uniform draw without replacement.
        for i in 0..self.churn_hosts.min(hosts) {
            let j = i + self.rng.below((hosts - i) as u64) as usize;
            self.order.swap(i, j);
            let h = self.order[i];
            for &m in &CHURNED {
                let max = u64::from(METRICS[m].max_quarters);
                self.readings[h][m] = self.rng.below(max) as u32;
            }
            self.reported[h] = now;
            self.render_host(h);
        }
    }

    fn render_host(&mut self, h: usize) {
        let out = &mut self.host_xml[h];
        out.clear();
        let _ = writeln!(
            out,
            "<HOST NAME=\"{}\" IP=\"10.{}.{}.{}\" REPORTED=\"{}\" TN=\"{}\" TMAX=\"20\" \
             DMAX=\"0\" LOCATION=\"rack{},slot{}\" STARTED=\"1000\">",
            host_name(&self.name, h),
            self.index % 250,
            h / 250,
            h % 250 + 1,
            self.reported[h],
            h % 15,
            h / 16,
            h % 16
        );
        for (value, metric) in self.readings[h].iter().zip(&METRICS) {
            let _ = write!(out, "<METRIC NAME=\"{}\" VAL=\"", metric.name);
            if metric.ty == "float" {
                let _ = write!(out, "{}.{:02}", value / 4, (value % 4) * 25);
            } else {
                let _ = write!(out, "{value}");
            }
            let _ = writeln!(
                out,
                "\" TYPE=\"{}\" UNITS=\"{}\" TN=\"{}\" TMAX=\"60\" DMAX=\"0\" \
                 SLOPE=\"both\" SOURCE=\"gmond\"/>",
                metric.ty,
                metric.units,
                h % 20
            );
        }
        out.push_str("</HOST>\n");
    }
}
