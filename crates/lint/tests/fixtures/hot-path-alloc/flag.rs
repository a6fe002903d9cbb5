//@ file: crates/sim/src/router.rs
impl LinkEngine {
    pub fn run_inner(&mut self) {
        helper_a();
    }
    pub fn advance(&mut self) {}
    pub fn start_transmission(&mut self) {}
}

fn helper_a() {
    helper_b();
}

fn helper_b() -> Vec<u32> {
    vec![1, 2]
}

//@ file: crates/obs/src/sketch.rs
impl QuantileSketch {
    pub fn record(&mut self, v: u64) {
        note(v);
    }
}

fn note(v: u64) -> Vec<u64> {
    vec![v]
}

//@ file: crates/sched/src/active_set.rs
impl ActiveSet {
    fn replay(&mut self, i: usize) {
        self.win[1] = widen(i)[0];
    }
}

fn widen(i: usize) -> Vec<u32> {
    vec![i as u32]
}

//@ file: crates/sched/src/wf2q.rs
impl Wf2q {
    fn sweep(&mut self) {
        let promoted: Vec<usize> = self.pending.iter().copied().collect();
        self.count = promoted.len();
    }
}

//@ file: crates/traffic/src/aimd.rs
impl Source for AimdSource {
    fn on_feedback(&mut self, now: Time, fb: Feedback) -> Option<Time> {
        self.cwnd = recompute(self.cwnd);
        None
    }
}

fn recompute(w: u32) -> u32 {
    let scratch: Vec<u32> = vec![w; 4];
    scratch.len() as u32
}
