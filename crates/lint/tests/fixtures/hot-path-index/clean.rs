//@ file: crates/sim/src/router.rs
impl LinkEngine {
    pub fn run_inner(&mut self) {}
    #[inline]
    pub fn advance(&mut self, f: usize) {
        let pad = [0u64; 4];
        let len = self.pending.get(f).copied();
        self.consume(len, pad);
    }
    pub fn start_transmission(&mut self) {}
    fn consume(&mut self, len: Option<u32>, pad: [u64; 4]) {}
}
