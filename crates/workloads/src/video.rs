//! The `video` scenario: MPlayer playing a movie trailer full screen.
//!
//! Table 1: "MPlayer 1.0rc1-4.1.2 playing Life of David Gale MPEG2 movie
//! trailer at full-screen resolution". The distinguishing properties §6
//! discusses: one display command per frame at 24 fps (modest command
//! *rate*, large command *size*), a single process creating little new
//! state, and full-screen mode engaging the checkpoint policy's skip
//! rule when no input arrives.

use dejaview::DejaView;
use dv_display::{Rect, YuvFrame};
use dv_time::Duration;
use dv_vee::{Prot, Vpid};

use crate::scenario::Scenario;

/// Decoded frame resolution (scaled to the screen on display).
const FRAME_W: u32 = 640;
const FRAME_H: u32 = 352;

/// The video-playback scenario.
pub struct VideoScenario {
    frames_remaining: u32,
    frame_no: u32,
    player: Option<Vpid>,
    decode_buf: Option<u64>,
}

impl VideoScenario {
    /// Creates the scenario; `scale` = 1.0 plays ~30 seconds (720
    /// frames) of 24 fps video.
    pub fn new(scale: f64) -> Self {
        VideoScenario {
            frames_remaining: ((720.0 * scale).ceil() as u32).max(24),
            frame_no: 0,
            player: None,
            decode_buf: None,
        }
    }

    fn decode_frame(&self) -> YuvFrame {
        // A cheap deterministic "decode": a moving gradient plus noise,
        // so every frame differs everywhere (worst case for deltas).
        let n = self.frame_no;
        let luma: Vec<u8> = (0..(FRAME_W * FRAME_H) as usize)
            .map(|i| {
                let x = i as u32 % FRAME_W;
                let y = i as u32 / FRAME_W;
                ((x + n * 3) ^ (y + n)) as u8
            })
            .collect();
        YuvFrame::from_luma(FRAME_W, FRAME_H, luma)
    }
}

impl Scenario for VideoScenario {
    fn name(&self) -> &'static str {
        "video"
    }

    fn description(&self) -> &'static str {
        "MPlayer 1.0rc1-4.1.2 playing Life of David Gale MPEG2 movie trailer at full-screen resolution"
    }

    fn setup(&mut self, dv: &mut DejaView) {
        let init = dv.init_vpid();
        let player = dv.vee_mut().spawn(Some(init), "mplayer").expect("spawn");
        // Decode buffer: rewritten every frame, so the dirty set per
        // checkpoint stays small and stable.
        let buf = dv
            .vee_mut()
            .mmap(player, (FRAME_W * FRAME_H) as u64 * 2, Prot::ReadWrite)
            .expect("mmap");
        let app = dv.desktop_mut().register_app("mplayer");
        let root = dv.desktop_mut().root(app).expect("registered");
        dv.desktop_mut().add_node(
            app,
            root,
            dv_access::Role::Window,
            "Life of David Gale - mplayer",
        );
        dv.desktop_mut().focus(app);
        dv.set_fullscreen(true);
        self.player = Some(player);
        self.decode_buf = Some(buf);
    }

    fn step(&mut self, dv: &mut DejaView) -> bool {
        self.frame_no += 1;
        let frame = self.decode_frame();
        // The decoder writes the frame into its buffer (real memory
        // work), then hands it to the overlay path: one command per
        // frame covering the whole screen.
        let player = self.player.expect("setup ran");
        dv.vee_mut()
            .mem_write(player, self.decode_buf.expect("setup"), &frame.y)
            .expect("decode write");
        let (w, h) = (dv.driver_mut().width(), dv.driver_mut().height());
        dv.driver_mut().video_frame(Rect::new(0, 0, w, h), frame);
        self.frames_remaining -= 1;
        if self.frames_remaining == 0 {
            dv.set_fullscreen(false);
            return false;
        }
        true
    }

    fn step_duration(&self) -> Duration {
        // 24 frames per second.
        Duration::from_nanos(1_000_000_000 / 24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, CheckpointMode, RunOptions};
    use dejaview::Config;

    #[test]
    fn video_emits_one_command_per_frame() {
        let mut dv = DejaView::new(Config::default());
        let mut scenario = VideoScenario::new(0.1); // 72 frames = 3s.
        let summary = run_scenario(&mut dv, &mut scenario, RunOptions::default());
        assert_eq!(summary.steps, 72);
        let stats = dv.driver_mut().stats();
        assert_eq!(stats.video_frames, 72);
        // ~24 commands per second: a modest rate.
        assert!(dv.obs().counter(dv_obs::names::DISPLAY_DRIVER_COMMANDS) < 80);
        assert!(summary.checkpoints >= 2);
    }

    #[test]
    fn video_policy_skips_checkpoints_without_input() {
        let mut dv = DejaView::new(Config::default());
        let mut scenario = VideoScenario::new(0.1);
        let summary = run_scenario(
            &mut dv,
            &mut scenario,
            RunOptions {
                checkpoints: CheckpointMode::Policy,
                ..RunOptions::default()
            },
        );
        // Fullscreen without input: the policy skips everything.
        assert_eq!(summary.checkpoints, 0);
        assert!(dv.policy_stats().fullscreen >= 2);
    }
}
