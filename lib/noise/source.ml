(* Streaming noise sources: one API over every backend, filling
   caller-owned floatarray buffers with no per-sample allocation.

   Every source derives its whole stream from a single root draw taken
   from the creating generator (exactly one bits64, the same
   consumption as Spectral_synth.generate and Pool.parallel_init_floats),
   so reset/skip are pure re-derivations and a stream is bit-identical
   however the fill calls partition it:

   - White: one Gaussian child stream per Pool.default_chunk-aligned
     chunk of the output index space — the same chunk/seed alignment as
     Pool.parallel_init_floats, so a streamed white series equals the
     batch parallel one bit for bit, and [skip] over whole chunks is
     O(1).
   - Voss: the octave ladder is a sequential recurrence seeded from
     child stream 0 of the root.
   - Kasdin: the chunk-aligned white input stream is pushed through a
     truncated-tap fractional-integration filter with the
     Ptrng_signal.Fft overlap-add engine — O(log m) per sample, O(m)
     memory, any stream length.
   - Spectral: the stream is a sequence of fixed-size synthesized
     blocks; block b is rebuilt on demand from a salted per-block root,
     so random access (skip) costs at most one block synthesis.  Blocks
     after the first reuse the block buffer, a cached amplitude
     spectrum and the synthesis scratch. *)

module Rng = Ptrng_prng.Rng
module Gaussian = Ptrng_prng.Gaussian
module FA = Float.Array
module Fft = Ptrng_signal.Fft

let samples_total =
  Ptrng_telemetry.Registry.Counter.v
    ~help:"Noise samples delivered through the streaming Source API."
    "ptrng_noise_source_samples_total"

type config =
  | CWhite of { sigma : float }
  | CKasdin of { alpha : float; sigma_w : float; taps : int; block : int }
  | CVoss of { octaves : int; sigma : float }
  | CSpectral of { psd : Psd_model.frac_freq; fs : float; block : int }

let white ~sigma =
  if sigma < 0.0 then invalid_arg "Source.white: sigma < 0";
  CWhite { sigma }

let default_kasdin_taps = 1 lsl 15

let kasdin ?(taps = default_kasdin_taps) ?(block = Ptrng_exec.Pool.default_chunk)
    ~alpha ~sigma_w () =
  if taps <= 0 then invalid_arg "Source.kasdin: taps <= 0";
  if block <= 0 then invalid_arg "Source.kasdin: block <= 0";
  if sigma_w < 0.0 then invalid_arg "Source.kasdin: sigma_w < 0";
  CKasdin { alpha; sigma_w; taps; block }

let flicker_fm ?taps ?block ~hm1 () =
  if hm1 < 0.0 then invalid_arg "Source.flicker_fm: negative hm1";
  (* For alpha = 1 the driving variance sigma_w^2 = pi h_{-1} puts the
     one-sided level at h_{-1}/f, independent of the sampling rate. *)
  kasdin ?taps ?block ~alpha:1.0 ~sigma_w:(sqrt (Float.pi *. hm1)) ()

let voss ?(octaves = 20) ~sigma () =
  if octaves < 1 || octaves > 62 then
    invalid_arg "Source.voss: octaves outside [1,62]";
  if sigma < 0.0 then invalid_arg "Source.voss: sigma < 0";
  CVoss { octaves; sigma }

let spectral ?(block = 1 lsl 16) ~psd ~fs () =
  if not (Fft.is_pow2 block) then
    invalid_arg "Source.spectral: block not a power of two";
  if fs <= 0.0 then invalid_arg "Source.spectral: fs <= 0";
  if psd.Psd_model.hm2 <> 0.0 then invalid_arg "Source.spectral: hm2 <> 0";
  CSpectral { psd; fs; block }

(* ------------------------------------------------------------------ *)
(* Chunk-aligned white stream (shared by White and Kasdin)             *)
(* ------------------------------------------------------------------ *)

type white_state = {
  w_sigma : float;
  mutable rng : Rng.t;
  mutable chunk_index : int;  (* chunk [rng] draws for; -1 = none yet *)
  mutable drawn : int;        (* samples already drawn from [rng] *)
}

let chunk = Ptrng_exec.Pool.default_chunk

let white_make ~sigma =
  {
    w_sigma = sigma;
    rng = Rng.create ~seed:0L ();
    chunk_index = -1;
    drawn = 0;
  }

let white_reset st = st.chunk_index <- (-1)

(* Fill [len] samples starting at absolute stream position [abs] into
   [dst] at [dst_pos].  Chunk ci of the index space is served by child
   stream ci of the root; entering a chunk mid-way discards the skipped
   prefix draws so the sample at index i never depends on how fills
   were partitioned. *)
let white_fill st ~root ~abs ~dst ~dst_pos ~len =
  let p = ref abs and i = ref dst_pos and remaining = ref len in
  while !remaining > 0 do
    let ci = !p / chunk and off = !p mod chunk in
    if ci <> st.chunk_index then begin
      st.rng <- Rng.child ~root ~index:ci ();
      st.chunk_index <- ci;
      st.drawn <- 0
    end;
    while st.drawn < off do
      let (_ : float) = Gaussian.draw st.rng in
      st.drawn <- st.drawn + 1
    done;
    let take = min !remaining (chunk - off) in
    (* Bulk ziggurat fill: draw-for-draw the per-sample loop, minus the
       boxed round trip per draw (Gaussian.fill_fa). *)
    Gaussian.fill_fa st.rng ~sigma:st.w_sigma dst ~pos:!i ~len:take;
    st.drawn <- st.drawn + take;
    p := !p + take;
    i := !i + take;
    remaining := !remaining - take
  done

(* ------------------------------------------------------------------ *)
(* Backend states                                                      *)
(* ------------------------------------------------------------------ *)

type kasdin_state = {
  k_white : white_state;
  ola : Fft.Overlap_add.t;
  wbuf : FA.t;  (* one block of filtered-input staging *)
}

type voss_state = {
  v_sigma : float;
  v_octaves : int;
  mutable v : Voss.t;
}

type spectral_state = {
  s_psd : Psd_model.frac_freq;
  s_fs : float;
  s_block : int;
  mutable cur : FA.t;          (* synthesized block [block_index] *)
  mutable block_index : int;   (* -1 = none yet *)
  mutable resynth : (FA.t * Spectral_synth.scratch) option;
      (* amplitude spectrum and synthesis scratch; built at the first
         resynthesis *)
}

type impl =
  | IWhite of white_state
  | IKasdin of kasdin_state
  | IVoss of voss_state
  | ISpectral of spectral_state

type t = {
  root : int64;
  mutable pos : int;
  impl : impl;
}

(* Per-block roots must not collide with the bin-chunk child indices
   used inside one block's synthesis (a few thousand at most), so they
   are salted far beyond them; block 0 keeps the bare root so a
   single-block stream is bit-identical to Spectral_synth.generate. *)
let spectral_block_salt = 1 lsl 30

let[@inline] spectral_block_root ~root b =
  if b = 0 then root else Rng.derive_seed root (spectral_block_salt + b)

(* The first synthesis allocates [cur] and evaluates the PSD per bin,
   so a one-block stream holds nothing more.  The first resynthesis
   builds the amplitude spectrum and the scratch once; every block from
   then on is rebuilt in place in [cur], allocating no float array. *)
let spectral_sync st ~root b =
  if b <> st.block_index then begin
    let root = spectral_block_root ~root b in
    (if FA.length st.cur = 0 then
       st.cur <-
         Spectral_synth.generate_with_root ~root
           ~psd:st.s_psd ~fs:st.s_fs st.s_block
     else
       let amplitudes, scratch =
         match st.resynth with
         | Some r -> r
         | None ->
           let r =
             ( Spectral_synth.amplitudes ~psd:st.s_psd ~fs:st.s_fs st.s_block,
               Spectral_synth.scratch st.s_block )
           in
           st.resynth <- Some r;
           r
       in
       Spectral_synth.generate_into ~root ~amplitudes ~scratch st.cur);
    st.block_index <- b
  end

let create config rng =
  let root = Rng.bits64 rng in
  let impl =
    match config with
    | CWhite { sigma } -> IWhite (white_make ~sigma)
    | CKasdin { alpha; sigma_w; taps; block } ->
      let h = FA.create taps in
      let coeffs = Kasdin.coefficients ~alpha taps in
      for k = 0 to taps - 1 do
        FA.set h k coeffs.(k)
      done;
      IKasdin
        {
          k_white = white_make ~sigma:sigma_w;
          ola = Fft.Overlap_add.create ~h ~block;
          wbuf = FA.create block;
        }
    | CVoss { octaves; sigma } ->
      IVoss
        {
          v_sigma = sigma;
          v_octaves = octaves;
          v = Voss.create (Rng.child ~root ~index:0 ()) ~octaves;
        }
    | CSpectral { psd; fs; block } ->
      ISpectral
        {
          s_psd = psd;
          s_fs = fs;
          s_block = block;
          cur = FA.create 0;
          block_index = -1;
          resynth = None;
        }
  in
  { root; pos = 0; impl }

let position t = t.pos

let fill_range t dst ~pos ~len =
  if len < 0 || pos < 0 || pos + len > FA.length dst then
    invalid_arg "Source.fill_range: bad range";
  Ptrng_telemetry.Registry.Counter.add samples_total len;
  (match t.impl with
  | IWhite st ->
    white_fill st ~root:t.root ~abs:t.pos ~dst ~dst_pos:pos ~len
  | IKasdin st ->
    let block = Fft.Overlap_add.block st.ola in
    let abs = ref t.pos and i = ref pos and remaining = ref len in
    while !remaining > 0 do
      let take = min !remaining block in
      white_fill st.k_white ~root:t.root ~abs:!abs
        ~dst:st.wbuf ~dst_pos:0 ~len:take;
      Fft.Overlap_add.process st.ola ~src:st.wbuf ~src_pos:0 ~dst ~dst_pos:!i
        ~len:take;
      abs := !abs + take;
      i := !i + take;
      remaining := !remaining - take
    done
  | IVoss st ->
    let sigma = st.v_sigma in
    for j = pos to pos + len - 1 do
      FA.unsafe_set dst j (sigma *. Voss.next st.v)
    done
  | ISpectral st ->
    let abs = ref t.pos and i = ref pos and remaining = ref len in
    while !remaining > 0 do
      let b = !abs / st.s_block and off = !abs mod st.s_block in
      spectral_sync st ~root:t.root b;
      let take = min !remaining (st.s_block - off) in
      FA.blit st.cur off dst !i take;
      abs := !abs + take;
      i := !i + take;
      remaining := !remaining - take
    done);
  t.pos <- t.pos + len

let fill t dst = fill_range t dst ~pos:0 ~len:(FA.length dst)

let reset t =
  (match t.impl with
  | IWhite st -> white_reset st
  | IKasdin st ->
    white_reset st.k_white;
    Fft.Overlap_add.reset st.ola
  | IVoss st ->
    st.v <- Voss.create (Rng.child ~root:t.root ~index:0 ()) ~octaves:st.v_octaves
  | ISpectral _ -> ());
  t.pos <- 0

let skip t n =
  if n < 0 then invalid_arg "Source.skip: n < 0";
  (match t.impl with
  | IWhite _ | ISpectral _ ->
    (* Position is re-derived lazily on the next fill: whole skipped
       chunks/blocks are never synthesized. *)
    ()
  | IVoss st ->
    for _ = 1 to n do
      let (_ : float) = Voss.next st.v in
      ()
    done
  | IKasdin st ->
    (* The filter tail must see every input, so skipping streams the
       skipped span through the convolver into its own staging. *)
    let block = Fft.Overlap_add.block st.ola in
    let abs = ref t.pos and remaining = ref n in
    while !remaining > 0 do
      let take = min !remaining block in
      white_fill st.k_white ~root:t.root ~abs:!abs
        ~dst:st.wbuf ~dst_pos:0 ~len:take;
      Fft.Overlap_add.process st.ola ~src:st.wbuf ~src_pos:0 ~dst:st.wbuf
        ~dst_pos:0 ~len:take;
      abs := !abs + take;
      remaining := !remaining - take
    done);
  t.pos <- t.pos + n
