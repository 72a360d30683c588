//! Command queueing and merging.
//!
//! THINC queues display commands and merges them "so that only the result
//! of the last update is logged" (§4.1). DejaView uses this to let users
//! trade recording frequency against storage: commands accumulate in a
//! [`CommandQueue`] and, when the queue is flushed at the configured
//! recording frequency, updates that a later command completely overwrote
//! are discarded.
//!
//! Dropping a command is only sound if nothing that remains *reads* the
//! pixels it would have produced — a later `CopyArea` may source from the
//! overwritten area. That rule lives in [`OverwritePass`], which the
//! playback engine's seek (§4.3) applies to encoded commands through
//! their headers alone.

use dv_time::Timestamp;

use crate::command::{CommandMeta, DisplayCommand};
use crate::rect::Rect;

/// The overwrite rule, as one newest→oldest pass over a command run: a
/// command is dropped when a later kept opaque command contains its
/// rectangle and no kept command in between reads it.
///
/// The pass only looks at [`CommandMeta`], so it prunes decoded commands
/// ([`CommandQueue`]) and encoded ones alike.
#[derive(Clone, Debug, Default)]
pub struct OverwritePass {
    /// What the kept commands seen so far cover (`true`) or read
    /// (`false`), newest first.
    later: Vec<(Rect, bool)>,
}

impl OverwritePass {
    /// Prunes `items` (oldest first) in place and returns how many were
    /// dropped; the survivors keep their order.
    pub fn prune<T>(&mut self, items: &mut Vec<T>, meta: impl Fn(&T) -> CommandMeta) -> usize {
        self.later.clear();
        // Survivors are swapped to the tail as the walk moves down, so
        // the vector is neither rebuilt nor reallocated.
        let mut kept_from = items.len();
        for i in (0..items.len()).rev() {
            if self.keeps(&meta(&items[i])) {
                kept_from -= 1;
                items.swap(i, kept_from);
            }
        }
        items.drain(..kept_from);
        kept_from
    }

    /// Decides the next-older command.
    fn keeps(&mut self, meta: &CommandMeta) -> bool {
        // Nearest kept command first: a cover found before any reader of
        // this area is the "later opaque command with no read in between".
        for (rect, covers) in self.later.iter().rev() {
            if *covers {
                if rect.contains(&meta.rect) {
                    return false;
                }
            } else if rect.overlaps(&meta.rect) {
                break;
            }
        }
        if meta.opaque && !meta.rect.is_empty() {
            self.later.push((meta.rect, true));
        }
        if let Some(read) = meta.reads {
            self.later.push((read, false));
        }
        true
    }
}

/// A timestamped command held in the queue.
#[derive(Clone, PartialEq, Debug)]
pub struct QueuedCommand {
    /// Session time at which the driver produced the command.
    pub time: Timestamp,
    /// The command.
    pub command: DisplayCommand,
}

/// A merging command queue.
///
/// # Examples
///
/// ```
/// use dv_display::{CommandQueue, DisplayCommand, Rect};
/// use dv_time::Timestamp;
///
/// let mut queue = CommandQueue::new();
/// let rect = Rect::new(0, 0, 10, 10);
/// queue.push(Timestamp::from_millis(1), DisplayCommand::SolidFill { rect, color: 1 });
/// queue.push(Timestamp::from_millis(2), DisplayCommand::SolidFill { rect, color: 2 });
/// // The first fill was completely overwritten and is merged away.
/// assert_eq!(queue.flush().len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CommandQueue {
    entries: Vec<QueuedCommand>,
    merged_away: u64,
    pass: OverwritePass,
}

impl CommandQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CommandQueue::default()
    }

    /// Returns how many commands merging has discarded over the queue's
    /// lifetime.
    pub fn merged_away(&self) -> u64 {
        self.merged_away
    }

    /// Appends a command, discarding queued commands it makes irrelevant
    /// by the [`OverwritePass`] rule.
    pub fn push(&mut self, time: Timestamp, command: DisplayCommand) {
        // Only a new cover can make anything droppable: the queue is
        // already pruned, and a reader at the newest end only blocks.
        let covers = command.is_opaque() && !command.rect().is_empty();
        self.entries.push(QueuedCommand { time, command });
        if covers {
            self.merged_away += self.pass.prune(&mut self.entries, |e| e.command.meta()) as u64;
        }
    }

    /// Removes and returns all queued commands in order.
    pub fn flush(&mut self) -> Vec<QueuedCommand> {
        std::mem::take(&mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fill(rect: Rect, color: u32) -> DisplayCommand {
        DisplayCommand::SolidFill { rect, color }
    }

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn overwritten_commands_merge_away() {
        let mut q = CommandQueue::new();
        q.push(ts(1), fill(Rect::new(0, 0, 4, 4), 1));
        q.push(ts(2), fill(Rect::new(1, 1, 2, 2), 2));
        q.push(ts(3), fill(Rect::new(0, 0, 8, 8), 3));
        assert_eq!(q.entries.len(), 1);
        assert_eq!(q.merged_away(), 2);
        assert_eq!(q.entries[0].time, ts(3));
    }

    #[test]
    fn partial_overlap_is_kept() {
        let mut q = CommandQueue::new();
        q.push(ts(1), fill(Rect::new(0, 0, 4, 4), 1));
        q.push(ts(2), fill(Rect::new(2, 2, 4, 4), 2));
        assert_eq!(q.entries.len(), 2);
    }

    #[test]
    fn copy_source_blocks_merge() {
        let mut q = CommandQueue::new();
        q.push(ts(1), fill(Rect::new(0, 0, 4, 4), 1));
        // This copy reads the filled area...
        q.push(
            ts(2),
            DisplayCommand::CopyArea {
                src_x: 0,
                src_y: 0,
                rect: Rect::new(10, 10, 4, 4),
            },
        );
        // ...so a later fill over the same area must not delete the
        // original fill, whose output the copy depends on.
        q.push(ts(3), fill(Rect::new(0, 0, 4, 4), 2));
        assert_eq!(q.entries.len(), 3);
    }

    #[test]
    fn copy_destination_can_merge() {
        let mut q = CommandQueue::new();
        q.push(
            ts(1),
            DisplayCommand::CopyArea {
                src_x: 20,
                src_y: 20,
                rect: Rect::new(0, 0, 4, 4),
            },
        );
        q.push(ts(2), fill(Rect::new(0, 0, 4, 4), 1));
        assert_eq!(q.entries.len(), 1, "copy output fully overwritten");
    }

    #[test]
    fn copy_never_merges_earlier_commands_away() {
        // A copy's effective write area shrinks when its source is
        // clamped at the screen edge, so it is not opaque: earlier
        // commands under its destination must survive.
        let mut q = CommandQueue::new();
        q.push(ts(1), fill(Rect::new(0, 0, 4, 4), 1));
        q.push(
            ts(2),
            DisplayCommand::CopyArea {
                src_x: 100,
                src_y: 100,
                rect: Rect::new(0, 0, 8, 8),
            },
        );
        assert_eq!(q.entries.len(), 2);
    }

    #[test]
    fn a_reader_that_is_itself_overwritten_blocks_nothing() {
        // The copy reads the first fill, but its own output is covered
        // by the third command and read by no one, so in one pass both
        // the copy and the fill it read go.
        let mut items = vec![
            fill(Rect::new(0, 0, 4, 4), 1).meta(),
            DisplayCommand::CopyArea {
                src_x: 0,
                src_y: 0,
                rect: Rect::new(10, 10, 4, 4),
            }
            .meta(),
            fill(Rect::new(0, 0, 16, 16), 2).meta(),
        ];
        let dropped = OverwritePass::default().prune(&mut items, |m| *m);
        assert_eq!(dropped, 2);
        assert_eq!(items, vec![fill(Rect::new(0, 0, 16, 16), 2).meta()]);
    }

    #[test]
    fn push_prunes_in_place() {
        let mut q = CommandQueue::new();
        for i in 0..3 {
            q.push(ts(i), fill(Rect::new(i as u32 * 4, 0, 2, 2), 1));
        }
        let buffer = q.entries.as_ptr();
        // Covers the middle entry only; the vector has room for it.
        q.push(ts(3), fill(Rect::new(4, 0, 4, 4), 2));
        assert_eq!(q.entries.len(), 3);
        assert_eq!(q.entries.as_ptr(), buffer, "entries were rebuilt");
        let times: Vec<_> = q.entries.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![ts(0), ts(2), ts(3)]);
    }

    #[test]
    fn flush_drains_in_order() {
        let mut q = CommandQueue::new();
        q.push(ts(1), fill(Rect::new(0, 0, 1, 1), 1));
        q.push(ts(2), fill(Rect::new(5, 5, 1, 1), 2));
        let drained = q.flush();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].time < drained[1].time);
        assert!(q.entries.is_empty());
    }

    #[test]
    fn merge_preserves_replay_result() {
        use crate::framebuffer::Framebuffer;
        // Applying the merged stream must produce the same screen as the
        // unmerged stream.
        let cmds = vec![
            fill(Rect::new(0, 0, 8, 8), 1),
            fill(Rect::new(2, 2, 2, 2), 2),
            DisplayCommand::Raw {
                rect: Rect::new(1, 1, 2, 2),
                pixels: Arc::new(vec![7, 8, 9, 10]),
            },
            DisplayCommand::CopyArea {
                src_x: 1,
                src_y: 1,
                rect: Rect::new(8, 8, 2, 2),
            },
            fill(Rect::new(0, 0, 8, 8), 3),
        ];
        let mut direct = Framebuffer::new(16, 16);
        for c in &cmds {
            direct.apply(c);
        }
        let mut q = CommandQueue::new();
        for (i, c) in cmds.iter().enumerate() {
            q.push(ts(i as u64), c.clone());
        }
        let mut merged = Framebuffer::new(16, 16);
        for entry in q.flush() {
            merged.apply(&entry.command);
        }
        assert_eq!(direct, merged);
    }
}
