//! The append-only display command log.
//!
//! "DejaView records display output as an append-only log of THINC
//! commands, where recorded commands specify a particular operation to be
//! performed on the current contents of the screen" (§4.1). Entries are
//! `[time: u64 LE][encoded command]`; byte offsets into the log are the
//! stable references the timeline index stores.

use dv_display::{
    decode_command, encode_command, peek_command, CodecError, CommandMeta, DisplayCommand,
};
use dv_time::Timestamp;

/// The append-only command log.
#[derive(Debug, Default)]
pub struct CommandLog {
    data: Vec<u8>,
    count: u64,
}

impl CommandLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        CommandLog::default()
    }

    /// Appends a timestamped command, returning its byte offset.
    pub fn append(&mut self, time: Timestamp, cmd: &DisplayCommand) -> u64 {
        let offset = self.data.len() as u64;
        self.data.extend_from_slice(&time.as_nanos().to_le_bytes());
        encode_command(cmd, &mut self.data);
        self.count += 1;
        offset
    }

    /// Returns the offset one past the last entry — where the next
    /// command will land.
    pub fn end_offset(&self) -> u64 {
        self.data.len() as u64
    }

    /// Returns the number of logged commands.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Returns whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Returns the total log size in bytes (drives Figure 4's display
    /// storage accounting).
    pub fn byte_len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Splits the entry at `offset` into its time and encoded command,
    /// or `None` at the end of the log.
    fn entry_at(&self, offset: u64) -> Result<Option<(Timestamp, &[u8])>, CodecError> {
        let Some(entry) = usize::try_from(offset)
            .ok()
            .and_then(|o| self.data.get(o..))
            .filter(|e| !e.is_empty())
        else {
            return Ok(None);
        };
        let (time, command) = entry
            .split_first_chunk::<8>()
            .ok_or(CodecError::UnexpectedEof)?;
        let time = Timestamp::from_nanos(u64::from_le_bytes(*time));
        Ok(Some((time, command)))
    }

    /// Reads the entry at `offset`, returning `(time, command,
    /// next_offset)`, or `None` at the end of the log.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if `offset` does not point at a valid
    /// entry.
    pub fn read_at(
        &self,
        offset: u64,
    ) -> Result<Option<(Timestamp, DisplayCommand, u64)>, CodecError> {
        let Some((time, mut command)) = self.entry_at(offset)? else {
            return Ok(None);
        };
        let before = command.len();
        let cmd = decode_command(&mut command)?;
        let consumed = 8 + (before - command.len()) as u64;
        Ok(Some((time, cmd, offset + consumed)))
    }

    /// Like [`CommandLog::read_at`], but reads only the entry's header:
    /// `(time, metadata, next_offset)` without decoding the payload.
    /// Succeeds exactly when `read_at` would.
    pub fn peek_at(
        &self,
        offset: u64,
    ) -> Result<Option<(Timestamp, CommandMeta, u64)>, CodecError> {
        let Some((time, command)) = self.entry_at(offset)? else {
            return Ok(None);
        };
        let meta = peek_command(command)?;
        Ok(Some((time, meta, offset + 8 + meta.len as u64)))
    }

    /// [`CommandLog::read_at`] for playing forward to `t`: `None` also
    /// when the entry lies after `t`, which its header says before its
    /// payload is decoded. Fails exactly when `read_at` would.
    pub fn read_until(
        &self,
        offset: u64,
        t: Timestamp,
    ) -> Result<Option<(Timestamp, DisplayCommand, u64)>, CodecError> {
        match self.peek_at(offset)? {
            Some((time, _, _)) if time <= t => self.read_at(offset),
            _ => Ok(None),
        }
    }

    /// Overwrites the command tag of the entry at `offset` with one no
    /// decoder knows.
    #[cfg(test)]
    pub(crate) fn corrupt_tag_at(&mut self, offset: u64) {
        self.data[offset as usize + 8] = 0xEE;
    }

    /// Iterates entries starting at `offset`.
    pub fn iter_from(&self, offset: u64) -> LogIter<'_> {
        LogIter { log: self, offset }
    }

    /// Returns the raw on-disk bytes of the log.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Reconstructs a log from its on-disk bytes, validating every
    /// entry.
    pub fn from_bytes(data: Vec<u8>) -> Result<CommandLog, CodecError> {
        let mut log = CommandLog { data, count: 0 };
        let mut offset = 0;
        while let Some((_, _, next)) = log.read_at(offset)? {
            offset = next;
            log.count += 1;
        }
        Ok(log)
    }
}

/// An iterator over log entries.
pub struct LogIter<'a> {
    log: &'a CommandLog,
    offset: u64,
}

impl LogIter<'_> {
    /// Returns the offset of the next entry to be yielded.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

impl Iterator for LogIter<'_> {
    type Item = (Timestamp, DisplayCommand);

    fn next(&mut self) -> Option<Self::Item> {
        match self.log.read_at(self.offset) {
            Ok(Some((time, cmd, next))) => {
                self.offset = next;
                Some((time, cmd))
            }
            Ok(None) => None,
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_display::Rect;

    fn fill(color: u32) -> DisplayCommand {
        DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 4, 4),
            color,
        }
    }

    #[test]
    fn append_and_read_round_trip() {
        let mut log = CommandLog::new();
        let o1 = log.append(Timestamp::from_millis(10), &fill(1));
        let o2 = log.append(Timestamp::from_millis(20), &fill(2));
        assert_eq!(o1, 0);
        assert!(o2 > o1);
        let (t, cmd, next) = log.read_at(o1).unwrap().unwrap();
        assert_eq!(t, Timestamp::from_millis(10));
        assert_eq!(cmd, fill(1));
        assert_eq!(next, o2);
    }

    #[test]
    fn read_at_end_returns_none() {
        let mut log = CommandLog::new();
        log.append(Timestamp::ZERO, &fill(1));
        assert!(log.read_at(log.end_offset()).unwrap().is_none());
    }

    #[test]
    fn read_until_stops_before_the_first_entry_past_t() {
        let mut log = CommandLog::new();
        let first = log.append(Timestamp::from_millis(10), &fill(1));
        let second = log.append(Timestamp::from_millis(20), &fill(2));
        let t = Timestamp::from_millis(10);
        assert_eq!(log.read_until(first, t), log.read_at(first));
        assert_eq!(log.read_until(second, t), Ok(None));
        assert_eq!(log.read_until(log.end_offset(), t), Ok(None));
        // An entry no decoder accepts fails whichever side of `t` it
        // lies on, as it did when the whole entry was decoded first.
        log.corrupt_tag_at(second);
        assert_eq!(log.read_until(second, t), Err(CodecError::BadTag(0xEE)));
    }

    #[test]
    fn iteration_preserves_order() {
        let mut log = CommandLog::new();
        for i in 0..10 {
            log.append(Timestamp::from_millis(i), &fill(i as u32));
        }
        let entries: Vec<_> = log.iter_from(0).collect();
        assert_eq!(entries.len(), 10);
        for (i, (t, cmd)) in entries.iter().enumerate() {
            assert_eq!(*t, Timestamp::from_millis(i as u64));
            assert_eq!(*cmd, fill(i as u32));
        }
    }

    #[test]
    fn iteration_from_middle_offset() {
        let mut log = CommandLog::new();
        log.append(Timestamp::from_millis(1), &fill(1));
        let mid = log.append(Timestamp::from_millis(2), &fill(2));
        log.append(Timestamp::from_millis(3), &fill(3));
        let entries: Vec<_> = log.iter_from(mid).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, Timestamp::from_millis(2));
    }

    #[test]
    fn bytes_round_trip() {
        let mut log = CommandLog::new();
        for i in 0..5 {
            log.append(Timestamp::from_millis(i), &fill(i as u32));
        }
        let restored = CommandLog::from_bytes(log.as_bytes().to_vec()).unwrap();
        assert_eq!(restored.len(), 5);
        assert_eq!(
            restored.iter_from(0).collect::<Vec<_>>(),
            log.iter_from(0).collect::<Vec<_>>()
        );
        // Truncated bytes are rejected.
        let cut = log.as_bytes().len() - 3;
        assert!(CommandLog::from_bytes(log.as_bytes()[..cut].to_vec()).is_err());
    }

    #[test]
    fn byte_len_tracks_growth() {
        let mut log = CommandLog::new();
        assert_eq!(log.byte_len(), 0);
        log.append(Timestamp::ZERO, &fill(0));
        let one = log.byte_len();
        log.append(Timestamp::ZERO, &fill(0));
        assert_eq!(log.byte_len(), one * 2);
    }
}
