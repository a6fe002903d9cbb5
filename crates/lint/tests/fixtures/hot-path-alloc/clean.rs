//@ file: crates/sim/src/router.rs
impl LinkEngine {
    pub fn run_inner(&mut self) {
        step();
    }
    pub fn advance(&mut self) {}
    pub fn start_transmission(&mut self) {}
}

fn step() {}

// qbm-lint: cold(one-time table build at construction)
fn build_tables() -> Vec<u64> {
    vec![0; 64]
}

fn outside_the_cone() -> Vec<u32> {
    vec![3]
}

//@ file: crates/obs/src/sketch.rs
impl QuantileSketch {
    pub fn record(&mut self, v: u64) {
        bump(v);
    }
}

fn bump(_v: u64) {}

// qbm-lint: cold(bucket table built once at construction)
fn build_buckets() -> Vec<u64> {
    vec![0; 1920]
}

//@ file: crates/sched/src/active_set.rs
impl ActiveSet {
    fn replay(&mut self, i: usize) {
        self.win[1] = i as u32;
    }
}

// qbm-lint: cold(tree arrays sized once at construction)
fn build_tree(leaves: usize) -> Vec<u32> {
    vec![0; leaves]
}

//@ file: crates/sched/src/wf2q.rs
impl Wf2q {
    fn sweep(&mut self) {
        while self.pending_head().is_some() {
            self.count += 1;
        }
    }
}

//@ file: crates/traffic/src/aimd.rs
impl Source for AimdSource {
    fn on_feedback(&mut self, now: Time, fb: Feedback) -> Option<Time> {
        self.cwnd = self.cwnd.saturating_add(1);
        None
    }
}

// qbm-lint: cold(config table built once at construction)
fn build_rto_table() -> Vec<u64> {
    vec![0; 8]
}
