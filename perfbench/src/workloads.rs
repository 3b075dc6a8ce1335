//! The benchmark's workloads: scenario text generated from a seed.
//!
//! Each generator returns a complete scenario file whose leading
//! comment says why the workload exists. The seed only becomes the
//! scenario's master RNG seed, so every seed runs the same job matrix
//! with different random draws — the work per run stays comparable
//! across seeds while the simulated statistics change.

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The tournament zoo with greedy TCP: the shipped user path.
    CellTcp,
    /// 32 saturated UDP downlink stations swept over every family.
    CellUdpDense,
    /// Four co-channel APs with residents and two crossing walkers.
    TopoCochannel,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::CellTcp,
    Workload::CellUdpDense,
    Workload::TopoCochannel,
];

/// How a workload's job matrix is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runner {
    /// `airtime_scenario::run_tournament`.
    Tournament,
    /// `airtime_scenario::run_sweep`.
    Sweep,
}

impl Workload {
    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CellTcp => "cell-tcp",
            Workload::CellUdpDense => "cell-udp-dense",
            Workload::TopoCochannel => "topo-cochannel",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Which engine entry point runs the matrix.
    pub fn runner(self) -> Runner {
        match self {
            Workload::CellTcp => Runner::Tournament,
            Workload::CellUdpDense | Workload::TopoCochannel => Runner::Sweep,
        }
    }

    /// The file name scenario diagnostics are labelled with.
    pub fn file(self) -> String {
        format!("{}.toml", self.name())
    }

    fn template(self) -> &'static Template {
        match self {
            Workload::CellTcp => &CELL_TCP,
            Workload::CellUdpDense => &CELL_UDP_DENSE,
            Workload::TopoCochannel => &TOPO_COCHANNEL,
        }
    }

    /// The scenario text for `seed`.
    pub fn scenario(self, seed: u64) -> String {
        self.scenario_for(seed, self.template().duration_s)
    }

    /// The scenario text for `seed`, simulating `duration_s` seconds
    /// (warm-up capped at a third of that). Tests use short runs.
    pub fn scenario_for(self, seed: u64, duration_s: u32) -> String {
        let t = self.template();
        let mut text = format!(
            "{}\nname = \"{}\"\nseed = {seed}\nduration_s = {duration_s}\nwarmup_s = {}\n{}",
            t.why,
            self.name(),
            t.warmup_s.min(duration_s / 3),
            t.body
        );
        if t.seeds > 1 {
            // The body ends in its [sweep] table.
            let seeds: Vec<String> = (0..t.seeds).map(|i| (seed + i).to_string()).collect();
            text += &format!("seed = [{}]\n", seeds.join(", "));
        }
        text
    }
}

/// One scenario: the comment saying why it exists, its simulated
/// length, how many consecutive seeds its sweep averages over, and the
/// rest of the file.
struct Template {
    why: &'static str,
    duration_s: u32,
    warmup_s: u32,
    seeds: u64,
    body: &'static str,
}

const CELL_TCP: Template = Template {
    why: "\
# cell-tcp: the tournament zoo with greedy TCP, the path users run.
#
# Every scheduler family over two rate mixes in both directions
# (7 x 2 x 2 = 28 single-cell jobs). Host time goes to the MAC and to
# TCP timers: most tcp.rto and tcp.delack dispatches find their timer
# already superseded. Work that trims MAC or TCP-timer dispatches, or
# per-event allocation, should show here.",
    duration_s: 30,
    warmup_s: 3,
    seeds: 1,
    body: "\
[tournament]
families = [\"fifo\", \"rr\", \"drr\", \"tbr\", \"txop\", \"pf\", \"maxmin\"]
rate_mixes = [\"11,1\", \"11,5.5,2,1\"]
directions = [\"down\", \"up\"]
",
};

const CELL_UDP_DENSE: Template = Template {
    why: "\
# cell-udp-dense: 32 saturated UDP downlink stations, every family.
#
# No TCP and one contender (the AP), so the MAC wastes little and TCP
# timers never fire. Host time goes to the per-step O(stations) work:
# pumping every flow and the scheduler's dequeue. Scheduler and
# plumbing work should show here; TCP-timer and MAC-waste work should
# leave it flat.",
    duration_s: 20,
    warmup_s: 2,
    seeds: 1,
    body: "\
direction = \"down\"
station_count = 32

[scheduler]
kind = \"fifo\"

[[station]]
rate = \"11\"
transport = \"udp\"

[[station]]
rate = \"5.5\"
transport = \"udp\"

[[station]]
rate = \"2\"
transport = \"udp\"

[[station]]
rate = \"1\"
transport = \"udp\"

[sweep]
scheduler = [\"fifo\", \"rr\", \"drr\", \"tbr\", \"txop\", \"pf\", \"maxmin\"]
",
};

const TOPO_COCHANNEL: Template = Template {
    why: "\
# topo-cochannel: four APs on channels 1/6/1/6 with crossing walkers.
#
# APs 150 ft apart; each cell holds an 11 and a 5.5 Mbit/s resident and
# two 1 Mbit/s walkers cross the line in opposite directions. Cells on
# the same channel share carrier sense, so the MAC resolves many more
# access rounds than it transmits frames. The only workload that runs
# the topology engine, its handoffs and the per-cell airtime ledger.
# Three consecutive seeds per run even out seed-to-seed swings in the
# co-channel contention.",
    duration_s: 8,
    warmup_s: 0,
    seeds: 3,
    body: "\
direction = \"up\"

[scheduler]
kind = \"tbr\"

[topology]
hysteresis_db = 6.0
assoc_tick_ms = 100
rate_set = \"b\"

[[cells]]
x_ft = 0
y_ft = 0
channel = 1

[[cells]]
x_ft = 150
y_ft = 0
channel = 6

[[cells]]
x_ft = 300
y_ft = 0
channel = 1

[[cells]]
x_ft = 450
y_ft = 0
channel = 6

[[station]]
rate = \"11\"
x_ft = 0
y_ft = 10

[[station]]
rate = \"5.5\"
x_ft = 0
y_ft = -10

[[station]]
rate = \"11\"
x_ft = 150
y_ft = 10

[[station]]
rate = \"5.5\"
x_ft = 150
y_ft = -10

[[station]]
rate = \"11\"
x_ft = 300
y_ft = 10

[[station]]
rate = \"5.5\"
x_ft = 300
y_ft = -10

[[station]]
rate = \"11\"
x_ft = 450
y_ft = 10

[[station]]
rate = \"5.5\"
x_ft = 450
y_ft = -10

[[station]]
rate = \"1\"
x_ft = 0
y_ft = 20

[[station.mobility]]
speed_fps = 40
x_ft = [0, 450]
y_ft = [20, 20]

[[station]]
rate = \"1\"
x_ft = 450
y_ft = -20

[[station.mobility]]
speed_fps = 40
x_ft = [450, 0]
y_ft = [-20, -20]

[sweep]
scheduler = [\"rr\", \"tbr\"]
direction = [\"up\", \"down\"]
",
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_say_why_and_carry_the_seed() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            let text = w.scenario(42);
            assert!(text.starts_with(&format!("# {}: ", w.name())), "{text}");
            assert!(text.contains("\nseed = 42\n"));
            assert_eq!(
                text.contains("seed = [42, 43, 44]"),
                w == Workload::TopoCochannel
            );
            assert_eq!(text, w.scenario(42));
            assert_ne!(text, w.scenario(43));
        }
    }
}
