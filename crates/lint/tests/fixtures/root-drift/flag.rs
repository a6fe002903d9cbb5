//@ file: crates/sim/src/router.rs
impl LinkEngine {
    pub fn run_inner_v2(&mut self) {}
    pub fn advance(&mut self) {}
    pub fn start_transmission(&mut self) {}
}
