//! Process address spaces with page-protection-based dirty tracking.
//!
//! DejaView's incremental checkpointing leverages "standard memory
//! protection mechanisms": saved regions are write-protected and marked
//! with a special flag; the first write faults, the handler clears the
//! flag, records the page as modified, and resumes the writer (§5.1.2).
//! Its COW capture marks pages copy-on-write at checkpoint time so the
//! memory copy happens lazily after the session resumes.
//!
//! Both mechanisms are modelled with real costs:
//!
//! * pages are [`Page`]s, shared handles to 4 KiB; a checkpoint
//!   *capture* clones them (cheap, proportional to page count, no data
//!   copy), and a later write to a captured page pays the real 4 KiB
//!   copy — exactly the deferred COW copy. A revived page is a window
//!   into the image it was read from and is copied the same way, on its
//!   first write;
//! * write-protect tracking is a set of armed pages; the first write to
//!   an armed page is counted as a fault and marks the page dirty.
//!
//! The region operations the paper intercepts (`mmap`, `munmap`,
//! `mprotect`, `mremap`) adjust the tracking state so dirty accounting
//! stays exact.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;

/// One memory page.
pub type PageBuf = [u8; PAGE_SIZE];

/// A resident page: a buffer of its own, or a window into the image
/// buffer a revive read it from. It reads as a [`PageBuf`] either way.
/// A write copies a window into a buffer of its own, and an owned
/// buffer only while something else (a capture) still holds it.
#[derive(Clone)]
pub struct Page(Repr);

#[derive(Clone)]
enum Repr {
    Own(Arc<PageBuf>),
    /// `image[off..off + PAGE_SIZE]`, checked by [`Page::in_image`].
    Image {
        image: Arc<Vec<u8>>,
        off: usize,
    },
}

fn window(image: &[u8], off: usize) -> &PageBuf {
    image[off..]
        .first_chunk()
        .expect("in_image checked the window")
}

impl Page {
    /// The page at `image[off..off + PAGE_SIZE]`, sharing the buffer, or
    /// `None` if the image ends before it.
    pub fn in_image(image: Arc<Vec<u8>>, off: usize) -> Option<Page> {
        let end = off.checked_add(PAGE_SIZE)?;
        (end <= image.len()).then_some(Page(Repr::Image { image, off }))
    }

    /// Whether the page is a window into an image buffer rather than a
    /// buffer of its own.
    pub fn in_image_buffer(&self) -> bool {
        matches!(self.0, Repr::Image { .. })
    }

    /// Writes `bytes` at `off`, first copying the page into a buffer of
    /// its own unless it has one nothing else holds. Returns whether it
    /// copied.
    fn write(&mut self, off: usize, bytes: &[u8]) -> bool {
        match &mut self.0 {
            Repr::Own(buf) => {
                let shared = Arc::strong_count(buf) > 1;
                Arc::make_mut(buf)[off..off + bytes.len()].copy_from_slice(bytes);
                shared
            }
            Repr::Image { image, off: at } => {
                let mut buf = *window(image, *at);
                buf[off..off + bytes.len()].copy_from_slice(bytes);
                self.0 = Repr::Own(Arc::new(buf));
                true
            }
        }
    }
}

impl From<PageBuf> for Page {
    fn from(buf: PageBuf) -> Self {
        Page(Repr::Own(Arc::new(buf)))
    }
}

/// A buffer already on the heap becomes a page without a copy.
impl From<Arc<PageBuf>> for Page {
    fn from(buf: Arc<PageBuf>) -> Self {
        Page(Repr::Own(buf))
    }
}

impl std::ops::Deref for Page {
    type Target = PageBuf;

    fn deref(&self) -> &PageBuf {
        match &self.0 {
            Repr::Own(buf) => buf,
            Repr::Image { image, off } => window(image, *off),
        }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Repr::Own(_) => f.write_str("Page(own)"),
            Repr::Image { off, .. } => write!(f, "Page(image @ {off})"),
        }
    }
}

/// Page protection bits (simplified to the write axis the checkpoint
/// machinery cares about; everything mapped is readable).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Prot {
    /// Read-only, set by the application itself.
    ReadOnly,
    /// Readable and writable.
    ReadWrite,
}

/// A mapped memory region.
#[derive(Clone, Debug)]
pub struct MemRegion {
    /// Start address (page-aligned).
    pub start: u64,
    /// Length in bytes (page multiple).
    pub len: u64,
    /// Application-visible protection.
    pub prot: Prot,
}

impl MemRegion {
    /// Returns the exclusive end address.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }
}

/// A memory access fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// The address is not mapped.
    NotMapped,
    /// A write hit a genuinely read-only region (the application gets a
    /// SIGSEGV; the tracking path never surfaces this).
    WriteProtected,
}

/// Cumulative address-space statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemStats {
    /// Write-protect faults taken for dirty tracking.
    pub tracking_faults: u64,
    /// Pages physically copied on their first write because something
    /// else still held their bytes: a checkpoint capture (the deferred
    /// COW copy) or the image buffer a revive installed them from.
    pub cow_copies: u64,
}

/// A process address space.
#[derive(Clone, Debug, Default)]
pub struct AddressSpace {
    regions: BTreeMap<u64, MemRegion>,
    pages: HashMap<u64, Page>,
    /// Pages currently armed for dirty tracking.
    armed: HashSet<u64>,
    /// Pages written since the last incremental checkpoint.
    dirty: HashSet<u64>,
    /// Addresses whose resident page was dropped (`munmap`, a shrinking
    /// or moving `mremap`) since tracking was armed: an earlier image
    /// of the chain may still hold their old contents.
    dropped: BTreeSet<u64>,
    /// Whether tracking is active (affects writes to not-yet-allocated
    /// pages of writable regions).
    tracking: bool,
    next_addr: u64,
    stats: MemStats,
}

fn page_of(addr: u64) -> u64 {
    addr & !(PAGE_SIZE as u64 - 1)
}

fn round_up(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            next_addr: 0x1000_0000,
            ..AddressSpace::default()
        }
    }

    /// Returns the mapped regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &MemRegion> {
        self.regions.values()
    }

    /// Returns the number of resident (allocated) pages.
    #[cfg(test)]
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Returns total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.values().map(|r| r.len).sum()
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    fn region_of(&self, addr: u64) -> Option<&MemRegion> {
        self.regions
            .range(..=addr)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(addr))
    }

    /// Removes the page at `page` and its tracking state, returning its
    /// buffer. While tracking, a dropped resident page's address is
    /// remembered until the next full pass.
    fn drop_page(&mut self, page: u64) -> Option<Page> {
        self.armed.remove(&page);
        self.dirty.remove(&page);
        let buf = self.pages.remove(&page);
        if self.tracking && buf.is_some() {
            self.dropped.insert(page);
        }
        buf
    }

    /// `[start, end)` has just been mapped again. A dropped address in
    /// it reads as zeros, but an earlier image may hold its old page:
    /// it gets a dirty zero page, so the next image records the zeros.
    fn cover_dropped(&mut self, start: u64, end: u64) {
        while let Some(page) = self.dropped.range(start..end).next().copied() {
            self.dropped.remove(&page);
            self.pages
                .entry(page)
                .or_insert_with(|| Page::from([0u8; PAGE_SIZE]));
            self.dirty.insert(page);
        }
    }

    /// Maps `len` bytes (rounded up to pages) with the given protection,
    /// returning the start address.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn mmap(&mut self, len: u64, prot: Prot) -> u64 {
        assert!(len > 0, "cannot map zero bytes");
        let len = round_up(len);
        let start = self.next_addr;
        self.next_addr += len + PAGE_SIZE as u64; // Guard gap.
        self.regions.insert(start, MemRegion { start, len, prot });
        start
    }

    /// Unmaps `[addr, addr+len)`; must exactly match one mapped region
    /// (the common application pattern; partial unmap is not modelled).
    ///
    /// Returns `false` if no such region exists.
    pub fn munmap(&mut self, addr: u64, len: u64) -> bool {
        let len = round_up(len);
        match self.regions.get(&addr) {
            Some(r) if r.len == len => {}
            _ => return false,
        }
        self.regions.remove(&addr);
        let mut page = addr;
        while page < addr + len {
            self.drop_page(page);
            page += PAGE_SIZE as u64;
        }
        true
    }

    /// Changes a region's protection. Making a tracked region read-only
    /// un-arms its pages "to ensure that future exceptions will be
    /// propagated to the application" (§5.1.2); making it writable again
    /// conservatively marks its pages dirty (writes can no longer fault
    /// for tracking).
    ///
    /// Returns `false` if no region starts at `addr`.
    pub fn mprotect(&mut self, addr: u64, prot: Prot) -> bool {
        let Some(region) = self.regions.get_mut(&addr) else {
            return false;
        };
        let (start, end) = (region.start, region.end());
        let old = region.prot;
        region.prot = prot;
        if old == prot {
            return true;
        }
        let mut page = start;
        while page < end {
            match prot {
                Prot::ReadOnly => {
                    self.armed.remove(&page);
                }
                Prot::ReadWrite => {
                    if self.tracking {
                        self.dirty.insert(page);
                    }
                }
            }
            page += PAGE_SIZE as u64;
        }
        true
    }

    /// Grows or shrinks the region starting at `addr`, relocating it
    /// (like `MREMAP_MAYMOVE`) when growing would collide with a
    /// neighbouring mapping. Returns the region's (possibly new) start
    /// address, or `None` if no region starts at `addr`.
    pub fn mremap(&mut self, addr: u64, new_len: u64) -> Option<u64> {
        let new_len = round_up(new_len.max(PAGE_SIZE as u64));
        let old_len = self.regions.get(&addr)?.len;
        if new_len <= old_len {
            let region = self.regions.get_mut(&addr).expect("checked above");
            region.len = new_len;
            let mut page = addr + new_len;
            while page < addr + old_len {
                self.drop_page(page);
                page += PAGE_SIZE as u64;
            }
            return Some(addr);
        }
        // Growing: stay in place when the guard gap allows, move
        // otherwise. Only growing in place can cover addresses that were
        // mapped before: every new mapping starts past `next_addr`.
        let next_start = self
            .regions
            .range(addr + 1..)
            .next()
            .map(|(s, _)| *s)
            .unwrap_or(u64::MAX);
        if addr + new_len <= next_start {
            self.regions.get_mut(&addr).expect("checked above").len = new_len;
            self.next_addr = self.next_addr.max(addr + new_len + PAGE_SIZE as u64);
            self.cover_dropped(addr + old_len, addr + new_len);
            return Some(addr);
        }
        let prot = self.regions.get(&addr).expect("checked above").prot;
        let new_start = self.next_addr;
        self.next_addr += new_len + PAGE_SIZE as u64;
        self.regions.remove(&addr);
        self.regions.insert(
            new_start,
            MemRegion {
                start: new_start,
                len: new_len,
                prot,
            },
        );
        // Move the pages. While tracking, no image holds a moved page at
        // its new address yet, so there it is dirty.
        let mut offset = 0;
        while offset < old_len {
            if let Some(buf) = self.drop_page(addr + offset) {
                let new_page = new_start + offset;
                self.pages.insert(new_page, buf);
                if self.tracking {
                    self.dirty.insert(new_page);
                }
            }
            offset += PAGE_SIZE as u64;
        }
        Some(new_start)
    }

    /// Reads `len` bytes at `addr`; unallocated pages read as zeros.
    ///
    /// # Errors
    ///
    /// Faults with [`MemFault::NotMapped`] if the range is not fully
    /// mapped.
    pub fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::with_capacity(len);
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            if self.region_of(cur).is_none() {
                return Err(MemFault::NotMapped);
            }
            let page = page_of(cur);
            let take = ((page + PAGE_SIZE as u64).min(end) - cur) as usize;
            match self.pages.get(&page) {
                Some(buf) => {
                    let off = (cur - page) as usize;
                    out.extend_from_slice(&buf[off..off + take]);
                }
                None => out.extend(std::iter::repeat_n(0u8, take)),
            }
            cur += take as u64;
        }
        Ok(out)
    }

    /// Writes `data` at `addr`, taking tracking faults and COW copies as
    /// needed.
    ///
    /// # Errors
    ///
    /// Faults if the range is unmapped or the region is read-only.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        // Validate the whole range first so partial writes never happen.
        let end = addr + data.len() as u64;
        let mut cur = addr;
        while cur < end {
            match self.region_of(cur) {
                None => return Err(MemFault::NotMapped),
                Some(r) if r.prot == Prot::ReadOnly => return Err(MemFault::WriteProtected),
                Some(r) => cur = r.end(),
            }
        }
        let mut cur = addr;
        while cur < end {
            let page = page_of(cur);
            // The write-protect tracking fault path.
            if self.armed.remove(&page) {
                self.stats.tracking_faults += 1;
                self.dirty.insert(page);
            } else if self.tracking && !self.pages.contains_key(&page) {
                // First-ever write to a fresh page while tracking.
                self.dirty.insert(page);
            }
            let off = (cur - page) as usize;
            let take = (PAGE_SIZE - off).min((end - cur) as usize);
            let entry = self
                .pages
                .entry(page)
                .or_insert_with(|| Page::from([0u8; PAGE_SIZE]));
            // Deferred COW copy: a checkpoint capture or a revive's image
            // still holds this page; pay the real copy now.
            if entry.write(off, &data[(cur - addr) as usize..][..take]) {
                self.stats.cow_copies += 1;
            }
            cur += take as u64;
        }
        Ok(())
    }

    /// Arms dirty tracking on every page of every writable region (the
    /// full-checkpoint write-protect pass) and clears the dirty set.
    pub fn arm_tracking(&mut self) {
        self.tracking = true;
        self.armed.clear();
        self.dirty.clear();
        self.dropped.clear();
        for region in self.regions.values() {
            if region.prot != Prot::ReadWrite {
                continue;
            }
            let mut page = region.start;
            while page < region.end() {
                if self.pages.contains_key(&page) {
                    self.armed.insert(page);
                }
                page += PAGE_SIZE as u64;
            }
        }
    }

    /// Re-arms tracking on the currently dirty pages and returns them —
    /// the incremental-checkpoint handoff.
    pub fn take_dirty(&mut self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self.dirty.drain().collect();
        dirty.sort_unstable();
        for &page in &dirty {
            if self.pages.contains_key(&page)
                && self
                    .region_of(page)
                    .is_some_and(|r| r.prot == Prot::ReadWrite)
            {
                self.armed.insert(page);
            }
        }
        dirty
    }

    /// Returns every resident page address, sorted.
    pub fn resident_page_addrs(&self) -> Vec<u64> {
        let mut addrs: Vec<u64> = self.pages.keys().copied().collect();
        addrs.sort_unstable();
        addrs
    }

    /// Captures the given pages by reference (the COW capture): cheap
    /// handle clones, no data copy. Missing pages capture as `None`
    /// (zero pages).
    pub fn capture_pages(&self, addrs: &[u64]) -> Vec<(u64, Option<Page>)> {
        addrs
            .iter()
            .map(|&a| (a, self.pages.get(&a).cloned()))
            .collect()
    }

    /// Whether `addr` starts a mapped page that has nothing resident —
    /// the question restore asks before taking a page from an image.
    pub fn lacks_page(&self, addr: u64) -> bool {
        page_of(addr) == addr && self.region_of(addr).is_some() && !self.pages.contains_key(&addr)
    }

    /// Installs page contents during restore.
    pub fn install_page(&mut self, addr: u64, data: Page) {
        self.pages.insert(addr, data);
    }

    /// Installs a region during restore.
    pub fn install_region(&mut self, region: MemRegion) {
        self.next_addr = self.next_addr.max(region.end() + PAGE_SIZE as u64);
        self.regions.insert(region.start, region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_read_write_round_trip() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(10_000, Prot::ReadWrite);
        mem.write(addr + 100, b"hello pages").unwrap();
        assert_eq!(mem.read(addr + 100, 11).unwrap(), b"hello pages");
        assert_eq!(mem.read(addr, 4).unwrap(), vec![0; 4], "untouched is zero");
    }

    #[test]
    fn writes_span_pages() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(3 * PAGE_SIZE as u64, Prot::ReadWrite);
        let data: Vec<u8> = (0..PAGE_SIZE * 2).map(|i| (i % 251) as u8).collect();
        mem.write(addr + 100, &data).unwrap();
        assert_eq!(mem.read(addr + 100, data.len()).unwrap(), data);
        assert_eq!(mem.resident_pages(), 3);
    }

    #[test]
    fn unmapped_and_readonly_fault() {
        let mut mem = AddressSpace::new();
        assert_eq!(mem.write(0x10, b"x"), Err(MemFault::NotMapped));
        let ro = mem.mmap(PAGE_SIZE as u64, Prot::ReadOnly);
        assert_eq!(mem.write(ro, b"x"), Err(MemFault::WriteProtected));
        assert!(mem.read(ro, 8).is_ok());
    }

    #[test]
    fn munmap_requires_exact_region_and_clears() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(2 * PAGE_SIZE as u64, Prot::ReadWrite);
        mem.write(addr, b"data").unwrap();
        assert!(!mem.munmap(addr, PAGE_SIZE as u64));
        assert!(mem.munmap(addr, 2 * PAGE_SIZE as u64));
        assert_eq!(mem.read(addr, 1), Err(MemFault::NotMapped));
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn dirty_tracking_catches_writes() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(4 * PAGE_SIZE as u64, Prot::ReadWrite);
        mem.write(addr, &[1; PAGE_SIZE * 4]).unwrap();
        mem.arm_tracking();
        // Touch pages 1 and 3 only.
        mem.write(addr + PAGE_SIZE as u64, b"x").unwrap();
        mem.write(addr + 3 * PAGE_SIZE as u64 + 7, b"y").unwrap();
        let dirty = mem.take_dirty();
        assert_eq!(
            dirty,
            vec![addr + PAGE_SIZE as u64, addr + 3 * PAGE_SIZE as u64]
        );
        assert_eq!(mem.stats().tracking_faults, 2);
    }

    #[test]
    fn one_fault_per_page_between_checkpoints() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(PAGE_SIZE as u64, Prot::ReadWrite);
        mem.write(addr, b"seed").unwrap();
        mem.arm_tracking();
        for i in 0..100 {
            mem.write(addr + i, &[i as u8]).unwrap();
        }
        assert_eq!(mem.stats().tracking_faults, 1);
        assert_eq!(mem.take_dirty().len(), 1);
    }

    #[test]
    fn fresh_pages_count_dirty_while_tracking() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(8 * PAGE_SIZE as u64, Prot::ReadWrite);
        mem.arm_tracking();
        mem.write(addr + 5 * PAGE_SIZE as u64, b"new").unwrap();
        assert_eq!(mem.take_dirty(), vec![addr + 5 * PAGE_SIZE as u64]);
    }

    #[test]
    fn take_dirty_rearms() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(PAGE_SIZE as u64, Prot::ReadWrite);
        mem.write(addr, b"1").unwrap();
        mem.arm_tracking();
        mem.write(addr, b"2").unwrap();
        assert_eq!(mem.take_dirty().len(), 1);
        assert!(mem.take_dirty().is_empty(), "clean until written again");
        mem.write(addr, b"3").unwrap();
        assert_eq!(mem.take_dirty().len(), 1, "re-armed page faults again");
    }

    #[test]
    fn mprotect_interactions_with_tracking() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(PAGE_SIZE as u64, Prot::ReadWrite);
        mem.write(addr, b"x").unwrap();
        mem.arm_tracking();
        // App makes it read-only: tracking must disarm so the app sees
        // real faults.
        mem.mprotect(addr, Prot::ReadOnly);
        assert_eq!(mem.write(addr, b"y"), Err(MemFault::WriteProtected));
        // Back to read-write: conservatively dirty.
        mem.mprotect(addr, Prot::ReadWrite);
        assert!(mem.take_dirty().contains(&addr));
    }

    #[test]
    fn munmap_removes_from_incremental_state() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(PAGE_SIZE as u64, Prot::ReadWrite);
        mem.write(addr, b"x").unwrap();
        mem.arm_tracking();
        mem.write(addr, b"y").unwrap();
        mem.munmap(addr, PAGE_SIZE as u64);
        assert!(mem.take_dirty().is_empty(), "unmapped pages are not saved");
    }

    #[test]
    fn mremap_shrink_drops_tail_grow_keeps_data() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(4 * PAGE_SIZE as u64, Prot::ReadWrite);
        mem.write(addr, &[7; 4 * PAGE_SIZE]).unwrap();
        assert_eq!(mem.mremap(addr, 2 * PAGE_SIZE as u64), Some(addr));
        assert_eq!(
            mem.read(addr + 3 * PAGE_SIZE as u64, 1),
            Err(MemFault::NotMapped)
        );
        assert_eq!(mem.mremap(addr, 4 * PAGE_SIZE as u64), Some(addr));
        assert_eq!(mem.read(addr, 1).unwrap(), vec![7], "kept prefix");
        assert_eq!(
            mem.read(addr + 3 * PAGE_SIZE as u64, 1).unwrap(),
            vec![0],
            "regrown tail is zero"
        );
    }

    #[test]
    fn cow_capture_defers_the_copy() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(2 * PAGE_SIZE as u64, Prot::ReadWrite);
        mem.write(addr, &[9; 2 * PAGE_SIZE]).unwrap();
        let pages = mem.resident_page_addrs();
        let captured = mem.capture_pages(&pages);
        assert_eq!(mem.stats().cow_copies, 0, "capture copies nothing");
        // Post-resume write pays the copy; the capture stays intact.
        mem.write(addr, b"changed").unwrap();
        assert_eq!(mem.stats().cow_copies, 1);
        let (first_addr, first_page) = &captured[0];
        assert_eq!(*first_addr, addr);
        assert_eq!(first_page.as_ref().unwrap()[0], 9, "capture unchanged");
        assert_eq!(mem.read(addr, 7).unwrap(), b"changed");
    }

    /// An image of `pages` pages, page `i` filled with `i + 1`, behind
    /// an 8-byte header.
    fn image(pages: usize) -> Arc<Vec<u8>> {
        let mut image = vec![0xee; 8];
        for i in 0..pages {
            image.extend_from_slice(&[i as u8 + 1; PAGE_SIZE]);
        }
        Arc::new(image)
    }

    #[test]
    fn a_page_is_two_words() {
        assert!(std::mem::size_of::<Page>() <= 16);
    }

    #[test]
    fn in_image_refuses_windows_past_the_end() {
        let image = image(2);
        let last = 8 + PAGE_SIZE;
        assert_eq!(Page::in_image(image.clone(), last).unwrap()[0], 2);
        assert!(Page::in_image(image.clone(), last + 1).is_none());
        assert!(Page::in_image(image.clone(), image.len()).is_none());
        for off in [usize::MAX, usize::MAX - PAGE_SIZE + 1, usize::MAX - 15] {
            assert!(Page::in_image(image.clone(), off).is_none(), "{off:#x}");
        }
        assert!(Page::in_image(Arc::new(Vec::new()), 0).is_none());
    }

    #[test]
    fn first_write_to_an_image_page_copies_it_once() {
        let image = image(2);
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(2 * PAGE_SIZE as u64, Prot::ReadWrite);
        for (i, page) in [addr, addr + PAGE_SIZE as u64].into_iter().enumerate() {
            let off = 8 + i * PAGE_SIZE;
            mem.install_page(page, Page::in_image(image.clone(), off).unwrap());
        }
        let captured = mem.capture_pages(&[addr]);
        assert_eq!(mem.stats().cow_copies, 0, "install and capture share");
        mem.write(addr + 5, b"new").unwrap();
        mem.write(addr + 9, b"again").unwrap();
        assert_eq!(mem.stats().cow_copies, 1, "one copy, on the first write");
        assert_eq!(mem.read(addr + 4, 10).unwrap(), b"\x01new\x01again");
        assert!(captured[0].1.as_ref().unwrap().in_image_buffer());
        assert_eq!(captured[0].1.as_ref().unwrap()[5], 1, "capture unchanged");
        assert_eq!(image[8 + 5], 1, "the image is never written");
        assert_eq!(mem.read(addr + PAGE_SIZE as u64, 1).unwrap(), vec![2]);
    }

    #[test]
    fn an_image_page_outlives_the_other_holders_of_its_image() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(PAGE_SIZE as u64, Prot::ReadWrite);
        let image = image(1);
        mem.install_page(addr, Page::in_image(image.clone(), 8).unwrap());
        let weak = Arc::downgrade(&image);
        drop(image);
        assert!(weak.upgrade().is_some(), "the page holds its image");
        assert_eq!(mem.read(addr, PAGE_SIZE).unwrap(), vec![1; PAGE_SIZE]);
        mem.write(addr, b"x").unwrap();
        assert!(weak.upgrade().is_none(), "the copy let the image go");
        assert_eq!(mem.read(addr, 2).unwrap(), b"x\x01");
    }

    #[test]
    fn capture_of_unallocated_page_is_none() {
        let mut mem = AddressSpace::new();
        let addr = mem.mmap(PAGE_SIZE as u64, Prot::ReadWrite);
        let captured = mem.capture_pages(&[addr]);
        assert!(captured[0].1.is_none());
    }
}
