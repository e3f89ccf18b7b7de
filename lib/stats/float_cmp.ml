let default_eps = 1e-12

let near_zero ?(eps = default_eps) x = Float.abs x < eps
